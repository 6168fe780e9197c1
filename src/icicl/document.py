"""Parsing, pointer addressing and re-serialization of API description files.

Documents round-trip through plain Python trees (dicts/lists/scalars) so the
same machinery serves JSON and YAML inputs. Output format always mirrors the
input format.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any

import yaml
from yaml import (
    AliasEvent,
    DocumentStartEvent,
    MappingEndEvent,
    MappingStartEvent,
    ScalarEvent,
    SequenceEndEvent,
    SequenceStartEvent,
)

from .errors import PointerMiss, SpecSyntaxError
from .model import STRICT_JSON


class _SpecLoader(yaml.SafeLoader):
    """SafeLoader that keeps dates and timestamps as plain strings."""

    def construct_object(self, node: yaml.Node, deep: bool = False) -> Any:
        # SafeConstructor's scalar constructors raise KeyError (`!!bool maybe`),
        # IndexError (`!!float ''`) or AttributeError (`!!timestamp x`) for some
        # texts their tag does not fit; a YAMLError carries the position
        try:
            return super().construct_object(node, deep)
        except (LookupError, AttributeError) as exc:
            if not isinstance(node, yaml.ScalarNode):
                raise
            problem = f"{node.value!r} is not a valid {node.tag.rpartition(':')[2]}"
            raise yaml.constructor.ConstructorError(None, None, problem, node.start_mark) from exc


_SpecLoader.yaml_implicit_resolvers = {
    key: [(tag, regexp) for tag, regexp in resolvers if tag != "tag:yaml.org,2002:timestamp"]
    for key, resolvers in yaml.SafeLoader.yaml_implicit_resolvers.items()
}


# the loader whose parser gives the events YAML trees are built from: libyaml's
# where PyYAML was built with it, else the pure-Python one
_LibyamlSpecLoader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


# Deepest container nesting a spec may have, in either format; deeper is a
# syntax error. Enhancing and writing a spec recurse per level: `copy.deepcopy`
# two Python frames, the YAML dumper three, so that under the default recursion
# limit a YAML spec past about 310 levels or a JSON one past about 470 would
# fail after its model calls.
MAX_DEPTH = 200


def _too_deep(fmt: str) -> SpecSyntaxError:
    return SpecSyntaxError(f"{fmt} nested too deeply: more than {MAX_DEPTH} levels")


class _Unhandled(Exception):
    """A text the tree builder leaves to the pure loader."""


_SCALARS = yaml.constructor.SafeConstructor()  # its scalar constructors only read it
_TAG = "tag:yaml.org,2002:"
_SCALAR_TAGS = frozenset(_TAG + name for name in ("null", "bool", "int", "float", "binary", "timestamp", "str"))
_NO_KEY = object()  # the key of a mapping that waits for its next key


def _scalar(tag: str, value: str) -> Any:
    """What SafeConstructor builds for a scalar with this tag."""
    if tag not in _SCALAR_TAGS:
        raise _Unhandled
    try:
        return _SCALARS.yaml_constructors[tag](_SCALARS, yaml.ScalarNode(tag, value))
    except (yaml.YAMLError, ValueError, LookupError, AttributeError) as exc:
        # the pure loader raises it too, but only after any syntax error further on
        raise _Unhandled from exc


class _PlainScalars(dict):
    """A plain scalar's text to what it builds: a scalar of the tag of the first
    of _SpecLoader's implicit resolvers for its first character that matches
    it, or else a string. Each is resolved on first use.
    """

    def __missing__(self, text: str) -> Any:
        value = text
        for tag, regexp in _SpecLoader.yaml_implicit_resolvers.get(text[:1], ()):
            if regexp.match(text):
                value = _scalar(tag, text)
                break
        self[text] = value
        return value


def _count_depth(events: Iterator[yaml.Event], depth: int) -> None:
    """Read the rest of `events`, which open at `depth`, refusing a text that nests past MAX_DEPTH."""
    for event in events:
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > MAX_DEPTH:
                raise _too_deep("YAML")
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1


def _build_tree(events: Iterator[yaml.Event]) -> tuple[Any, bool]:
    """The tree `yaml.load` with _SpecLoader builds from these parser events,
    and whether an alias named a container, which can nest the tree deeper.

    Shared anchors stay shared and the last of duplicate keys wins. Raises
    _Unhandled, once it has counted the depth of every event, for what it
    leaves to the pure loader: a tag it does not construct, among them a `<<`
    merge key, a tag on a collection, a key that is not a scalar, an undefined
    or duplicate anchor, a scalar that does not construct and a second
    document.
    """
    plain = _PlainScalars()
    anchors: dict[str, Any] = {}
    stack: list[Any] = []  # the open containers, the innermost last
    root = parent = None  # parent is stack[-1], or None at document level
    in_map = aliased = False
    key: Any = _NO_KEY
    documents = 0
    try:
        for event in events:
            cls = type(event)
            if cls is ScalarEvent:
                value = event.value
                if event.tag is not None:
                    value = _scalar(event.tag, value)
                elif event.implicit[0]:
                    value = plain[value]
            elif cls is MappingStartEvent or cls is SequenceStartEvent:
                if len(stack) == MAX_DEPTH:
                    raise _too_deep("YAML")
                value = {} if cls is MappingStartEvent else []
                stack.append(value)
                if event.tag is not None or (in_map and key is _NO_KEY):
                    raise _Unhandled
            elif cls is MappingEndEvent or cls is SequenceEndEvent:
                stack.pop()
                parent = stack[-1] if stack else None
                in_map = type(parent) is dict
                continue
            elif cls is AliasEvent:
                if event.anchor not in anchors:
                    raise _Unhandled
                value = anchors[event.anchor]
                if type(value) is dict or type(value) is list:
                    if in_map and key is _NO_KEY:
                        raise _Unhandled
                    aliased = True
            else:
                documents += cls is DocumentStartEvent
                if documents > 1:
                    raise _Unhandled
                continue
            if event.anchor is not None and cls is not AliasEvent:
                if event.anchor in anchors:
                    raise _Unhandled
                anchors[event.anchor] = value
            if in_map and key is _NO_KEY:
                key = value
                continue
            if in_map:
                parent[key] = value
                key = _NO_KEY
            elif parent is not None:
                parent.append(value)
            else:
                root = value
            if cls is MappingStartEvent or cls is SequenceStartEvent:
                parent, in_map = value, cls is MappingStartEvent
    except _Unhandled:
        _count_depth(events, len(stack))
        raise
    return root, aliased


def _load_yaml(text: str) -> Any:
    """Build the tree from libyaml's events, or load it with the pure loader
    where the builder or libyaml gives up.

    The pure loader's result or error then stands, so a text gets the error
    message it always got, and every text the pure loader reads still loads.
    A text holding a `<<` merge key is built by the pure loader alone, at its
    speed.
    Events take no stack per level, so a text is refused as soon as it nests
    past MAX_DEPTH; the pure loader only reads a text within it, or one that
    libyaml refused first. libyaml refuses a str holding lone surrogates with
    UnicodeEncodeError.
    """
    try:
        root, aliased = _build_tree(yaml.parse(text, Loader=_LibyamlSpecLoader))
    except (_Unhandled, yaml.YAMLError, UnicodeEncodeError):
        root, aliased = yaml.load(text, Loader=_SpecLoader), True
    if aliased:
        _check_depth(root, "YAML")
    return root


def _check_depth(root: Any, fmt: str) -> None:
    """Raise SpecSyntaxError when containers nest more than MAX_DEPTH deep.

    The walk takes one level of containers at a time and keeps each container
    once per level, so a container that YAML aliases share is not walked once
    per path, and an alias cycle ends past MAX_DEPTH.
    """
    level = [root] if isinstance(root, (dict, list)) else []
    for _ in range(MAX_DEPTH):
        if not level:
            return
        level = list({
            id(child): child
            for node in level
            for child in (node.values() if isinstance(node, dict) else node)
            if isinstance(child, (dict, list))
        }.values())
    if level:
        raise _too_deep(fmt)


# a JSON or YAML escape that loads as a UTF-16 surrogate
_SURROGATE_ESCAPE = re.compile(r"\\(?:u|U0000)[dD][89a-fA-F]")


def _check_strings(root: Any) -> None:
    """Raise SpecSyntaxError for a key or string value holding a surrogate.

    UTF-8 cannot encode one, so such a spec could be neither mined into a bank
    nor written back.
    """
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            try:
                node.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise SpecSyntaxError(f"string holds U+{ord(node[exc.start]):04X}, a surrogate UTF-8 cannot encode") from exc
        elif isinstance(node, (dict, list)) and id(node) not in seen:
            seen.add(id(node))
            stack.extend(node)
            if isinstance(node, dict):
                stack.extend(node.values())


def escape_pointer_token(token: str) -> str:
    return token.replace("~", "~0").replace("/", "~1")


def _unescape_pointer_token(token: str) -> str:
    return token.replace("~1", "/").replace("~0", "~")


def join_pointer(*tokens: Any) -> str:
    return "".join("/" + escape_pointer_token(str(t)) for t in tokens)


@dataclass
class ApiDocument:
    """A parsed API description plus the format it arrived in."""

    root: Any
    fmt: str  # "json" | "yaml"

    def resolve(self, pointer: str) -> Any:
        """Return the node addressed by an RFC 6901 JSON pointer."""
        if pointer == "":
            return self.root
        if not pointer.startswith("/"):
            raise PointerMiss(pointer)
        node = self.root
        for raw in pointer[1:].split("/"):
            token = _unescape_pointer_token(raw)
            if isinstance(node, dict):
                if token in node:
                    node = node[token]
                    continue
                # YAML may have loaded a key as another type (a response code as
                # an int, `on` as True), which join_pointer wrote as its str()
                for key in node:
                    if not isinstance(key, str) and str(key) == token:
                        node = node[key]
                        break
                else:
                    raise PointerMiss(pointer)
                continue
            if isinstance(node, list):
                if not token.isdigit() or int(token) >= len(node):
                    raise PointerMiss(pointer)
                node = node[int(token)]
                continue
            raise PointerMiss(pointer)
        return node

    def serialize(self) -> bytes:
        """Render the tree back to bytes in the original format."""
        if self.fmt == "json":
            return (json.dumps(self.root, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
        text = yaml.safe_dump(
            self.root,
            sort_keys=False,
            allow_unicode=True,
            default_flow_style=False,
            indent=2,
            width=100000,
        )
        return text.encode("utf-8")


def parse_document(data: bytes | str, format_hint: str | None = None) -> ApiDocument:
    """Parse JSON or YAML bytes into an ApiDocument.

    Without a hint the format is auto-detected: content that parses as JSON is
    JSON, anything else goes through the YAML loader. Raises SpecSyntaxError
    with line/column positions on failure.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SpecSyntaxError(f"not UTF-8: {exc}") from exc
    else:
        text = data
    # text decoded from bytes holds no surrogate, so only an escape can load one
    scan_strings = isinstance(data, str) or (
        ("\\u" in text or "\\U" in text) and _SURROGATE_ESCAPE.search(text) is not None
    )

    if format_hint not in (None, "json", "yaml"):
        raise ValueError(f"unknown format hint: {format_hint!r}")

    if format_hint == "json" or (format_hint is None and text.lstrip()[:1] in ("{", "[")):
        try:
            root = STRICT_JSON.decode(text)
        except json.JSONDecodeError as exc:
            if format_hint == "json":
                raise SpecSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
            # fall through: a YAML scalar can begin with '{' without being JSON
        except ValueError as exc:  # NaN, Infinity, a float overflow, or an integer over the digit limit of `int`
            raise SpecSyntaxError(str(exc)) from exc
        except RecursionError as exc:
            raise _too_deep("JSON") from exc
        else:
            _check_depth(root, "JSON")
            if scan_strings:
                _check_strings(root)
            return ApiDocument(root=root, fmt="json")
    try:
        root = _load_yaml(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise SpecSyntaxError(str(getattr(exc, "problem", exc)), mark.line + 1, mark.column + 1) from exc
        raise SpecSyntaxError(str(exc)) from exc
    except ValueError as exc:  # an integer literal over the digit limit of `int`
        raise SpecSyntaxError(str(exc)) from exc
    except RecursionError as exc:
        raise _too_deep("YAML") from exc
    if scan_strings:
        _check_strings(root)
    return ApiDocument(root=root, fmt="yaml")


def document_version(doc: ApiDocument) -> tuple[str, str] | None:
    """Return ("openapi", "3.x.y") or ("swagger", "2.0"), or None if neither."""
    root = doc.root
    if not isinstance(root, dict):
        return None
    openapi = root.get("openapi")
    if isinstance(openapi, str) and openapi.startswith("3."):
        return ("openapi", openapi)
    swagger = root.get("swagger")
    if swagger is not None and str(swagger) == "2.0":
        return ("swagger", "2.0")
    return None
