"""Parsing, pointer addressing and re-serialization of API description files.

Documents round-trip through plain Python trees (dicts/lists/scalars) so the
same machinery serves JSON and YAML inputs. Output format always mirrors the
input format.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Any, NamedTuple

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


# the loader whose parser gives the events YAML trees are built from: libyaml's
# where PyYAML was built with it, else the pure-Python one
_LibyamlLoader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


# Deepest container nesting a spec may have, in either format; deeper is a
# syntax error. Enhancing and writing a spec recurse per level: `copy.deepcopy`
# two Python frames, the YAML dumper three, so that under the default recursion
# limit a YAML spec past about 310 levels or a JSON one past about 470 would
# fail after its model calls.
MAX_DEPTH = 200


def _too_deep(fmt: str) -> SpecSyntaxError:
    return SpecSyntaxError(f"{fmt} nested too deeply: more than {MAX_DEPTH} levels")


def _refused(event: yaml.Event, problem: str) -> SpecSyntaxError:
    mark = event.start_mark
    return SpecSyntaxError(problem, mark.line + 1, mark.column + 1)


def _int(text: str) -> int:
    base = {"0o": 8, "0x": 16}.get(text[:2])
    return int(text) if base is None else int(text[2:], base)


def _float(text: str) -> float:
    # float() reads every spelling but ".inf" and ".nan", which it reads without their dot
    return float(text.replace(".", "", 1) if text[-1] in "fFnN" else text)


class _CoreTag(NamedTuple):
    texts: re.Pattern[str]
    firsts: tuple[str, ...]  # the characters its texts begin with, "" for the empty text
    build: Callable[[str], Any]


_TAG = "tag:yaml.org,2002:"
_STR, _SEQ, _MAP = _TAG + "str", _TAG + "seq", _TAG + "map"

# The scalar tags of the YAML 1.2 core schema (YAML 1.2.2, section 10.3.2),
# the JSON schema tags OpenAPI allows, in the order a plain scalar tries them:
# it takes the first whose texts hold it, else it is a string.
_CORE = {
    _TAG + name: _CoreTag(re.compile(f"(?:{texts})\\Z"), firsts, build)
    for name, texts, firsts, build in (
        ("null", "~|null|Null|NULL|", ("~", "n", "N", ""), lambda text: None),
        ("bool", "true|True|TRUE|false|False|FALSE", tuple("tTfF"), lambda text: text[0] in "tT"),
        ("int", "[-+]?[0-9]+|0o[0-7]+|0x[0-9a-fA-F]+", tuple("-+0123456789"), _int),
        (
            "float",
            r"[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?|[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN)",
            tuple("-+.0123456789"),
            _float,
        ),
    )
}
_BY_FIRST: dict[str, list[_CoreTag]] = {}  # a plain scalar's first character -> the tags that may read it
for _core in _CORE.values():
    for _first in _core.firsts:
        _BY_FIRST.setdefault(_first, []).append(_core)

_NO_KEY = object()  # the key of a mapping that waits for its next key


class _PlainScalars(dict):
    """A plain scalar's text to what it builds by the core schema, each resolved on first use."""

    def __missing__(self, text: str) -> Any:
        value = text
        for core in _BY_FIRST.get(text[:1], ()):
            if core.texts.match(text):
                value = core.build(text)
                break
        self[text] = value
        return value


def _scalar(event: ScalarEvent, plain: _PlainScalars) -> Any:
    """What a scalar builds: a plain one by the core schema, a quoted one or
    one tagged `!` or `!!str` its text, and one with a core tag that tag's value.
    """
    tag = event.tag
    if tag is None:
        return plain[event.value] if event.implicit[0] else event.value
    if tag == "!" or tag == _STR:
        return event.value
    core = _CORE.get(tag)
    if core is None:
        raise _refused(event, f"tag {tag.replace(_TAG, '!!')} on a scalar is not a JSON schema tag")
    if not core.texts.match(event.value):
        raise _refused(event, f"{event.value!r} is not a valid {tag[len(_TAG) :]}")
    return core.build(event.value)


def _build_tree(events: Iterator[yaml.Event]) -> tuple[Any, bool]:
    """The tree these parser events describe by OpenAPI's YAML rules, and
    whether an alias named a container, which can nest the tree deeper.

    Scalars resolve by the YAML 1.2 core schema, and every mapping key loads
    as its text. Shared anchors stay shared and the last of duplicate keys
    wins. Raises SpecSyntaxError at the event of what a spec may not hold: a
    tag outside JSON schema's, a scalar its tag refuses, a `<<` merge key, a
    key that is not a text, an undefined or duplicate anchor and a second
    document.
    """
    plain = _PlainScalars()
    anchors: dict[str, tuple[Any, str | None]] = {}  # name -> (value, its text where it can be a key)
    stack: list[Any] = []  # the open containers, the innermost last
    root = parent = None  # parent is stack[-1], or None at document level
    in_map = aliased = False
    key: Any = _NO_KEY
    documents = 0
    for event in events:
        cls = type(event)
        if cls is ScalarEvent:
            tag = event.tag
            text = event.value if tag is None or tag == "!" or tag == _STR else None
            if in_map and key is _NO_KEY:
                if text is None:
                    raise _refused(event, "a mapping key must be a text")
                if text == "<<" and tag is None and event.implicit[0]:
                    raise _refused(event, "'<<' merge keys are not supported: YAML 1.2 has none")
                if event.anchor is None:
                    key = text
                    continue
            value = _scalar(event, plain)
        elif cls is MappingStartEvent or cls is SequenceStartEvent:
            if in_map and key is _NO_KEY:
                raise _refused(event, "a mapping key must be a text")
            tag = event.tag
            if tag is not None and tag != "!" and tag != (_MAP if cls is MappingStartEvent else _SEQ):
                kind = "mapping" if cls is MappingStartEvent else "sequence"
                raise _refused(event, f"tag {tag.replace(_TAG, '!!')} on a {kind} is not a JSON schema tag")
            if len(stack) == MAX_DEPTH:
                raise _too_deep("YAML")
            value, text = ({} if cls is MappingStartEvent else []), None
            stack.append(value)
        elif cls is MappingEndEvent or cls is SequenceEndEvent:
            stack.pop()
            parent = stack[-1] if stack else None
            in_map = type(parent) is dict
            continue
        elif cls is AliasEvent:
            if event.anchor not in anchors:
                raise _refused(event, f"found undefined alias {event.anchor!r}")
            value, text = anchors[event.anchor]
            if in_map and key is _NO_KEY:
                if text is None:
                    raise _refused(event, "a mapping key must be a text")
                key = text
                continue
            aliased = aliased or type(value) is dict or type(value) is list
        else:
            documents += cls is DocumentStartEvent
            if documents > 1:
                raise _refused(event, "expected a single document in the stream, but found another document")
            continue
        if event.anchor is not None and cls is not AliasEvent:
            if event.anchor in anchors:
                raise _refused(event, f"found duplicate anchor {event.anchor!r}")
            anchors[event.anchor] = (value, text)
        if in_map and key is _NO_KEY:  # an anchored key
            key = text
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
    return root, aliased


def _load_yaml(text: str) -> Any:
    """Build the tree from libyaml's events, or from the pure-Python parser's
    where libyaml refuses the text, so that a text gets the pure parser's
    error message. libyaml refuses a str holding lone surrogates with
    UnicodeEncodeError.
    """
    try:
        root, aliased = _build_tree(yaml.parse(text, Loader=_LibyamlLoader))
    except (yaml.YAMLError, UnicodeEncodeError):
        root, aliased = _build_tree(yaml.parse(text, Loader=yaml.SafeLoader))
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


class _SpecDumper(yaml.SafeDumper):
    """SafeDumper that also quotes a string the core schema reads as another
    scalar, such as `0o17` or `1e3`, and double-quotes one holding U+0085.
    """

    def analyze_scalar(self, scalar: str) -> yaml.emitter.ScalarAnalysis:
        analysis = super().analyze_scalar(scalar)
        # single-quoted, U+0085 is written as a line break, which reads back as a space
        analysis.allow_single_quoted = analysis.allow_single_quoted and "\x85" not in scalar
        return analysis


for _tag, _core in _CORE.items():
    _SpecDumper.add_implicit_resolver(_tag, _core.texts, _core.firsts)


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
                if token not in node:
                    raise PointerMiss(pointer)
                node = node[token]
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
        text = yaml.dump(
            self.root,
            Dumper=_SpecDumper,
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
    JSON, anything else is read as YAML. Raises SpecSyntaxError
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
