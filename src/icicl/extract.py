"""Parameter extraction from OpenAPI 3.x and Swagger 2.0 documents."""

from __future__ import annotations

import json
import logging
import re
from typing import Any

from .document import ApiDocument, document_version, join_pointer
from .errors import PointerMiss, UnsupportedVersion
from .model import ApiParameter, ExampleValue, SchemaType

log = logging.getLogger(__name__)

HTTP_METHODS = ("get", "put", "post", "delete", "options", "head", "patch", "trace")

_SCALAR_KINDS = frozenset({"string", "integer", "number", "boolean", "datetime", "enum"})

# one SchemaType per kind that carries nothing else, shared by every parameter of that kind
_PLAIN_TYPES = {
    kind: SchemaType(kind=kind) for kind in ("unknown", "string", "datetime", "integer", "number", "boolean", "object")
}

# a parameter's `in` -> its location, one string per location rather than one per parsed parameter
_LOCATIONS = {"path": "path", "query": "query", "header": "header", "cookie": "cookie", "formData": "body-field"}


def derive_api_name(doc: ApiDocument, fallback: str = "") -> str:
    """Slug of info.title, or the fallback when there is no usable title."""
    title = ""
    if isinstance(doc.root, dict):
        info = doc.root.get("info")
        if isinstance(info, dict) and isinstance(info.get("title"), str):
            title = info["title"]
    slug = re.sub(r"[^0-9a-z]+", "-", title.lower()).strip("-")
    return slug or fallback


def _deref(doc: ApiDocument, node: Any, pointer: str) -> tuple[Any, str]:
    """Follow in-file $ref chains; returns the target node and its pointer."""
    seen: set[str] = set()
    while isinstance(node, dict) and isinstance(node.get("$ref"), str):
        ref = node["$ref"]
        if not ref.startswith("#/"):
            log.warning("skipping external $ref %r", ref)
            return node, pointer
        target = "/" + ref[2:]
        if target in seen:
            log.warning("cyclic $ref at %r", ref)
            return node, pointer
        seen.add(target)
        try:
            node = doc.resolve(target)
        except PointerMiss:
            log.warning("dangling $ref %r", ref)
            return node, pointer
        pointer = target
    return node, pointer


def _enum_text(value: Any) -> str | None:
    """An enum member's text, or None, with a warning, for one JSON cannot encode."""
    if isinstance(value, str):
        return value
    try:
        return json.dumps(value, ensure_ascii=False)
    except (TypeError, ValueError):
        log.warning("unserializable enum member skipped: %r", value)
        return None


def classify_schema(doc: ApiDocument, schema: Any) -> SchemaType:
    """Map a schema node onto the type taxonomy.

    Absent or unrecognized types, and a $ref whose target is not an object,
    classify as "unknown"; declared defaults and enum members are type
    information, never examples. An array whose items $ref an enclosing array
    schema has items of kind "unknown".
    """
    return _classify(doc, *_deref(doc, schema, ""), ())


def _classify(doc: ApiDocument, schema: Any, pointer: str, enclosing: tuple[str, ...]) -> SchemaType:
    """classify_schema of the node that `_deref` reached at `pointer`, below the
    array schemas at the `enclosing` pointers."""
    if not isinstance(schema, dict):
        return _PLAIN_TYPES["unknown"]
    if pointer in enclosing:
        log.warning("recursive array schema at %r: its items are unknown", pointer)
        return _PLAIN_TYPES["unknown"]

    enum = schema.get("enum")
    members = tuple(text for text in map(_enum_text, enum) if text is not None) if isinstance(enum, list) else ()
    if members:  # an enum left with no member is classified by its type
        return SchemaType(kind="enum", enum_values=members)

    t = schema.get("type")
    if isinstance(t, list):  # 3.1 union types: use the first non-null member
        t = next((m for m in t if m != "null"), None)

    if t == "string":
        return _PLAIN_TYPES["datetime" if schema.get("format") in ("date", "date-time") else "string"]
    if t in ("integer", "number", "boolean", "object"):
        return _PLAIN_TYPES[t]
    if t == "array":
        items = _deref(doc, schema.get("items"), pointer + "/items")
        return SchemaType(kind="array", item_kind=_classify(doc, *items, enclosing + (pointer,)))
    return _PLAIN_TYPES["unknown"]


def _append_example(out: list[ExampleValue], value: Any) -> None:
    if isinstance(value, str) and not value.strip():
        return
    try:
        out.append(ExampleValue.from_python(value))
    except (ValueError, TypeError):
        log.warning("unserializable example skipped: %r", value)


def _examples(*nodes: Any) -> tuple[ExampleValue, ...]:
    """Examples declared on these nodes, in document order.

    Reads `example` and `examples` only; `default` and `enum` are not examples.
    """
    out: list[ExampleValue] = []
    for node in nodes:
        if not isinstance(node, dict):
            continue
        if "example" in node:
            _append_example(out, node["example"])
        examples = node.get("examples")
        if isinstance(examples, list):
            for v in examples:
                _append_example(out, v)
        elif isinstance(examples, dict):
            for member in examples.values():
                if isinstance(member, dict) and "value" in member:
                    _append_example(out, member["value"])
    return tuple(out)


def parameter_schema(node: dict) -> Any:
    """Where a parameter object's schema sits: its `schema` when that is an
    object, else the parameter itself, as for Swagger 2.0 non-body parameters."""
    schema = node.get("schema")
    return schema if isinstance(schema, dict) else node


def _operation_id(op: dict, method: str, path: str) -> str:
    opid = op.get("operationId")
    if isinstance(opid, str) and opid.strip():
        return opid
    return f"{method} {path}"


def _make_parameter(
    doc: ApiDocument,
    api_name: str,
    operation_id: str,
    node: dict,
    pointer: str,
) -> ApiParameter | None:
    name = node.get("name")
    location = node.get("in")
    location = _LOCATIONS.get(location) if isinstance(location, str) else None
    if not isinstance(name, str) or not name or location is None:
        log.warning("skipping malformed parameter at %s", pointer)
        return None
    declared = parameter_schema(node)
    schema, schema_pointer = (node, pointer) if declared is node else _deref(doc, declared, pointer + "/schema")
    return ApiParameter(
        api_name=api_name,
        operation_id=operation_id,
        param_name=name,
        description=str(node.get("description") or ""),
        location=location,
        required=bool(node.get("required", False)),
        declared_type=_classify(doc, schema, schema_pointer, ()),
        existing_examples=_examples(node) if schema is node else _examples(node, schema),
        source_pointer=pointer,
    )


def _body_fields(
    doc: ApiDocument,
    api_name: str,
    operation_id: str,
    schema: Any,
    schema_pointer: str,
) -> list[ApiParameter]:
    """One level of named scalar properties of a request-body object schema."""
    schema, schema_pointer = _deref(doc, schema, schema_pointer)
    if not isinstance(schema, dict):
        return []
    properties = schema.get("properties")
    if not isinstance(properties, dict):
        return []
    required_names = schema.get("required")
    # a member that is not a string names no property
    required_names = {n for n in required_names if isinstance(n, str)} if isinstance(required_names, list) else set()

    fields: list[ApiParameter] = []
    for prop_name, prop_schema in properties.items():
        prop_pointer = schema_pointer + join_pointer("properties", prop_name)
        prop_schema, prop_pointer = _deref(doc, prop_schema, prop_pointer)
        declared = _classify(doc, prop_schema, prop_pointer, ())
        if declared.kind not in _SCALAR_KINDS:  # so prop_schema is an object
            continue
        fields.append(
            ApiParameter(
                api_name=api_name,
                operation_id=operation_id,
                param_name=prop_name,
                description=str(prop_schema.get("description") or ""),
                location="body-field",
                required=prop_name in required_names,
                declared_type=declared,
                existing_examples=_examples(prop_schema),
                source_pointer=prop_pointer,
            )
        )
    return fields


def _request_body_fields(
    doc: ApiDocument, api_name: str, operation_id: str, op: dict, op_pointer: str
) -> list[ApiParameter]:
    body = op.get("requestBody")
    body_pointer = op_pointer + "/requestBody"
    body, body_pointer = _deref(doc, body, body_pointer)
    if not isinstance(body, dict):
        return []
    content = body.get("content")
    if not isinstance(content, dict) or not content:
        return []
    media = "application/json" if "application/json" in content else next(iter(content))
    media_obj = content.get(media)
    if not isinstance(media_obj, dict) or "schema" not in media_obj:
        return []
    schema_pointer = body_pointer + join_pointer("content", media, "schema")
    return _body_fields(doc, api_name, operation_id, media_obj["schema"], schema_pointer)


def _parameter_nodes(doc: ApiDocument, owner: dict, pointer: str) -> dict[tuple[str, str], tuple[dict, str]]:
    """The parameter objects a path item or an operation lists, with their
    pointers, by (name, in); the last of a pair wins."""
    nodes: dict[tuple[str, str], tuple[dict, str]] = {}
    listed = owner.get("parameters")
    for i, node in enumerate(listed if isinstance(listed, list) else ()):
        node, node_pointer = _deref(doc, node, pointer + f"/parameters/{i}")
        if isinstance(node, dict):
            nodes[(str(node.get("name")), str(node.get("in")))] = (node, node_pointer)
    return nodes


def located_parameters(doc: ApiDocument, api_name: str | None = None) -> list[tuple[ApiParameter, str, str]]:
    """Like extract_parameters, but each parameter comes with its (path, method).

    Path-level parameters are attributed to each operation that inherits them;
    an operation-level parameter with the same (name, in) pair overrides the
    inherited one. Raises UnsupportedVersion for anything that is not OpenAPI
    3.x or Swagger 2.0.
    """
    version = document_version(doc)
    if version is None:
        raise UnsupportedVersion("document declares neither openapi 3.x nor swagger 2.0")
    flavor = version[0]

    if api_name is None:
        api_name = derive_api_name(doc)

    paths = doc.root.get("paths")
    if not isinstance(paths, dict):
        return []

    out: list[tuple[ApiParameter, str, str]] = []
    for path, item in paths.items():
        item_pointer = join_pointer("paths", path)
        item, item_pointer = _deref(doc, item, item_pointer)
        if not isinstance(item, dict):
            continue

        shared = _parameter_nodes(doc, item, item_pointer)
        for method in HTTP_METHODS:
            op = item.get(method)
            if not isinstance(op, dict):
                continue
            op_pointer = item_pointer + f"/{method}"
            operation_id = _operation_id(op, method, path)

            found: list[ApiParameter] = []
            for pnode, ppointer in {**shared, **_parameter_nodes(doc, op, op_pointer)}.values():
                if pnode.get("in") == "body":  # Swagger 2.0 body parameter
                    found.extend(_body_fields(doc, api_name, operation_id, pnode.get("schema"), ppointer + "/schema"))
                    continue
                param = _make_parameter(doc, api_name, operation_id, pnode, ppointer)
                if param is not None:
                    found.append(param)

            if flavor == "openapi":
                found.extend(_request_body_fields(doc, api_name, operation_id, op, op_pointer))

            out.extend((param, path, method) for param in found)
    return out


def extract_parameters(doc: ApiDocument, api_name: str | None = None) -> list[ApiParameter]:
    """All operation parameters and request-body scalar fields of a document."""
    return [param for param, _path, _method in located_parameters(doc, api_name)]
