"""Parsing, pointer addressing and re-serialization of API description files.

Documents round-trip through plain Python trees (dicts/lists/scalars) so the
same machinery serves JSON and YAML inputs. Output format always mirrors the
input format.
"""

from __future__ import annotations

import json
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

    if format_hint not in (None, "json", "yaml"):
        raise ValueError(f"unknown format hint: {format_hint!r}")

    if format_hint == "json" or (format_hint is None and text.lstrip()[:1] in ("{", "[")):
        try:
            return ApiDocument(root=STRICT_JSON.decode(text), fmt="json")
        except json.JSONDecodeError as exc:
            if format_hint == "json":
                raise SpecSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
            # fall through: a YAML scalar can begin with '{' without being JSON
        except ValueError as exc:  # NaN, Infinity, a float overflow, or an integer over the digit limit of `int`
            raise SpecSyntaxError(str(exc)) from exc
        except RecursionError as exc:
            raise SpecSyntaxError("JSON nested too deeply") from exc
    try:
        root = yaml.load(text, Loader=_SpecLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise SpecSyntaxError(str(getattr(exc, "problem", exc)), mark.line + 1, mark.column + 1) from exc
        raise SpecSyntaxError(str(exc)) from exc
    except ValueError as exc:  # an integer literal over the digit limit of `int`
        raise SpecSyntaxError(str(exc)) from exc
    except RecursionError as exc:
        raise SpecSyntaxError("YAML nested too deeply") from exc
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
