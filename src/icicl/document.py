"""Parsing, pointer addressing and re-serialization of API description files.

Documents round-trip through plain Python trees (dicts/lists/scalars) so the
same machinery serves JSON and YAML inputs. Output format always mirrors the
input format.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any

import yaml

from .errors import PointerMiss, SpecSyntaxError
from .model import STRICT_JSON


class _SpecLoader(yaml.SafeLoader):
    """SafeLoader that keeps dates and timestamps as plain strings."""


_SpecLoader.yaml_implicit_resolvers = {
    key: [(tag, regexp) for tag, regexp in resolvers if tag != "tag:yaml.org,2002:timestamp"]
    for key, resolvers in yaml.SafeLoader.yaml_implicit_resolvers.items()
}


class _LibyamlSpecLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """_SpecLoader's resolvers on libyaml's parser, where PyYAML was built with it."""

    yaml_implicit_resolvers = _SpecLoader.yaml_implicit_resolvers


# Deepest container nesting a spec may have, in either format; deeper is a
# syntax error. Enhancing and writing a spec recurse per level: `copy.deepcopy`
# two Python frames, the YAML dumper three, so that under the default recursion
# limit a YAML spec past about 310 levels or a JSON one past about 470 would
# fail after its model calls.
MAX_DEPTH = 200

# libyaml builds nodes by C recursion, which no Python limit guards: past about
# 25,000 levels it overflows an 8 MiB stack and the process dies. This many
# levels take well under 1 MiB.
_LIBYAML_SAFE_NESTING = 2000


def _too_deep(fmt: str) -> SpecSyntaxError:
    return SpecSyntaxError(f"{fmt} nested too deeply: more than {MAX_DEPTH} levels")


def _nesting_bound(text: str) -> int:
    """An upper bound on how deep the collections of YAML `text` can nest.

    Block collections open at strictly increasing columns, at most two per
    column (a mapping and the sequence beside its keys). Each flow collection
    opens at a `[` or `{`, at most two per bracket (a sequence and one of its
    single-pair mappings). Flow collections hold no block ones.
    """
    return 2 * (max(map(len, text.split("\n"))) + text.count("[") + text.count("{"))


def _load_yaml(text: str) -> Any:
    """Load with libyaml, or with the pure loader where libyaml fails.

    The pure loader's result or error then stands, so a text gets the error
    message it always got, and every text the pure loader reads still loads.
    libyaml refuses a str holding lone surrogates with UnicodeEncodeError.
    """
    try:
        # without libyaml it is the pure loader, which Python's recursion limit guards
        if not issubclass(_LibyamlSpecLoader, yaml.SafeLoader) and _nesting_bound(text) > _LIBYAML_SAFE_NESTING:
            # count the nesting first, from libyaml's events, which take no C stack per level;
            # past MAX_DEPTH the text is refused, so the pure loader never scans a deep broken one
            depth = 0
            for event in yaml.parse(text, Loader=_LibyamlSpecLoader):
                if isinstance(event, yaml.CollectionStartEvent):
                    depth += 1
                    if depth > MAX_DEPTH:
                        raise _too_deep("YAML")
                elif isinstance(event, yaml.CollectionEndEvent):
                    depth -= 1
        return yaml.load(text, Loader=_LibyamlSpecLoader)
    except (yaml.YAMLError, UnicodeEncodeError):
        return yaml.load(text, Loader=_SpecLoader)


def _check_depth(root: Any, fmt: str) -> None:
    """Raise SpecSyntaxError when containers nest more than MAX_DEPTH deep.

    The walk takes one level of containers at a time and keeps each container
    once per level, so a container that YAML aliases share is not walked once
    per path, and an alias cycle ends past MAX_DEPTH.
    """
    level = [root] if isinstance(root, (dict, list)) else []
    for _ in range(MAX_DEPTH):
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
                # YAML may have loaded numeric keys (e.g. response codes) as ints
                if token.lstrip("-").isdigit() and int(token) in node:
                    node = node[int(token)]
                    continue
                raise PointerMiss(pointer)
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
    _check_depth(root, "YAML")
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
