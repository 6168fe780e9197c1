"""Parameter extraction across OpenAPI 3.x and Swagger 2.0 shapes."""

import json
from pathlib import Path

import pytest

from icicl.document import parse_document
from icicl.extract import (
    classify_schema,
    derive_api_name,
    extract_parameters,
    located_parameters,
)
from icicl.model import SchemaType


def load(path: Path):
    return parse_document(path.read_bytes())


def by_name(params):
    return {p.param_name: p for p in params}


def test_petstore_extraction(corpus_dir):
    doc = load(corpus_dir / "petstore.json")
    params = extract_parameters(doc)
    assert len(params) == 5
    named = by_name(params)

    limit = named["limit"]
    assert limit.api_name == "petstore"
    assert limit.operation_id == "listPets"
    assert limit.declared_type.kind == "integer"
    assert [e.raw_text for e in limit.existing_examples] == ["25"]
    assert limit.existing_examples[0].parsed_kind == "integer"
    assert limit.source_pointer == "/paths/~1pets/get/parameters/0"

    assert named["status"].declared_type.kind == "enum"
    assert named["status"].declared_type.enum_values == ("available", "pending", "sold")
    assert named["verbose"].declared_type.kind == "boolean"
    pet_id = named["petId"]
    assert pet_id.location == "path" and pet_id.required
    assert doc.resolve(pet_id.source_pointer)["name"] == "petId"


def test_path_level_parameters_inherited(corpus_dir):
    doc = load(corpus_dir / "users.yaml")
    triples = located_parameters(doc)
    assert len(triples) == 5

    ids = [(p.param_name, method) for p, _path, method in triples]
    assert ids.count(("id", "get")) == 1
    assert ids.count(("id", "delete")) == 1

    id_get = next(p for p, _pa, m in triples if p.param_name == "id" and m == "get")
    # inherited parameters keep the path-level pointer
    assert id_get.source_pointer == "/paths/~1users~1{id}/parameters/0"
    assert id_get.operation_id == "getUser"


def test_operation_level_override_wins():
    doc = parse_document(
        b"""
{
  "openapi": "3.0.0",
  "info": {"title": "O", "version": "1"},
  "paths": {
    "/x": {
      "parameters": [{"name": "q", "in": "query", "description": "shared", "schema": {"type": "string"}}],
      "get": {
        "operationId": "getX",
        "parameters": [{"name": "q", "in": "query", "description": "own", "schema": {"type": "integer"}}],
        "responses": {"200": {"description": "ok"}}
      }
    }
  }
}
"""
    )
    (param,) = extract_parameters(doc)
    assert param.description == "own"
    assert param.declared_type.kind == "integer"
    assert param.source_pointer == "/paths/~1x/get/parameters/0"


def test_swagger_formdata_becomes_body_field(corpus_dir):
    doc = load(corpus_dir / "payments.yaml")
    params = extract_parameters(doc)
    assert len(params) == 5
    named = by_name(params)

    amount = named["amount"]
    assert amount.location == "body-field"
    assert amount.declared_type.kind == "number"
    assert [e.raw_text for e in amount.existing_examples] == ["9.99"]
    assert named["currency"].location == "body-field"
    assert named["currency"].declared_type.kind == "enum"
    assert named["apiVersion"].location == "query"


def test_request_body_scalar_descent(corpus_dir):
    doc = load(corpus_dir / "books.json")
    params = extract_parameters(doc)
    named = by_name(params)
    assert set(named) == {"q", "lang", "title", "pages"}  # metadata (object) is skipped

    title = named["title"]
    assert title.location == "body-field"
    assert title.operation_id == "createBook"
    assert [e.raw_text for e in title.existing_examples] == ["Dune"]
    assert (
        title.source_pointer
        == "/paths/~1books/post/requestBody/content/application~1json/schema/properties/title"
    )
    assert doc.resolve(title.source_pointer)["example"] == "Dune"


def test_union_types_and_datetime(corpus_dir):
    geo = by_name(extract_parameters(load(corpus_dir / "geo.json")))
    assert geo["lat"].declared_type.kind == "number"  # ["number", "null"] picks number

    flights = by_name(extract_parameters(load(corpus_dir / "flights.yaml")))
    assert flights["departAfter"].declared_type.kind == "datetime"
    assert flights["direct"].declared_type.kind == "boolean"


def test_examples_map_collection(corpus_dir):
    movies = by_name(extract_parameters(load(corpus_dir / "movies.json")))
    genre = movies["genre"]
    assert [e.raw_text for e in genre.existing_examples] == ["sci-fi", "noir"]


def test_ref_resolution_and_cycles():
    doc = parse_document(
        b"""
{
  "openapi": "3.0.0",
  "info": {"title": "R", "version": "1"},
  "components": {
    "parameters": {
      "Shared": {"name": "token", "in": "query", "schema": {"$ref": "#/components/schemas/Tok"}}
    },
    "schemas": {
      "Tok": {"type": "string"},
      "Loop": {"$ref": "#/components/schemas/Loop"}
    }
  },
  "paths": {
    "/a": {
      "get": {
        "operationId": "getA",
        "parameters": [
          {"$ref": "#/components/parameters/Shared"},
          {"name": "weird", "in": "query", "schema": {"$ref": "#/components/schemas/Loop"}}
        ],
        "responses": {"200": {"description": "ok"}}
      }
    }
  }
}
"""
    )
    params = by_name(extract_parameters(doc))
    token = params["token"]
    assert token.declared_type.kind == "string"
    # the pointer follows the $ref to the shared definition
    assert token.source_pointer == "/components/parameters/Shared"
    assert params["weird"].declared_type.kind == "unknown"  # cycle degrades, never hangs


def test_swagger_body_parameter_yields_its_scalar_fields():
    body = {
        "name": "order",
        "in": "body",
        "schema": {
            "type": "object",
            "required": ["note"],
            "properties": {
                "note": {"type": "string", "description": "free text", "example": "rush"},
                "qty": {"type": "integer"},
                "tags": {"type": "array", "items": {"type": "string"}},
                "meta": {"type": "object"},
            },
        },
    }
    operation = {
        "operationId": "createOrder",
        "parameters": [{"name": "q", "in": "query", "type": "string"}, body],
        "responses": {"200": {"description": "ok"}},
    }
    spec = {"swagger": "2.0", "info": {"title": "S", "version": "1"}, "paths": {"/orders": {"post": operation}}}
    doc = parse_document(json.dumps(spec).encode("utf-8"))
    q, note, qty = extract_parameters(doc)  # the array and object fields are not scalars
    assert q.location == "query"
    assert (note.param_name, note.location, note.required, note.description) == ("note", "body-field", True, "free text")
    assert note.declared_type.kind == "string" and [e.raw_text for e in note.existing_examples] == ["rush"]
    assert (qty.param_name, qty.declared_type.kind, qty.required) == ("qty", "integer", False)
    assert [p.source_pointer for p in (note, qty)] == [
        "/paths/~1orders/post/parameters/1/schema/properties/note",
        "/paths/~1orders/post/parameters/1/schema/properties/qty",
    ]
    assert doc.resolve(note.source_pointer)["example"] == "rush"


def one_operation(*parameters):
    spec = {
        "openapi": "3.0.0",
        "info": {"title": "O", "version": "1"},
        "paths": {"/a": {"get": {"operationId": "getA", "parameters": list(parameters), "responses": {}}}},
    }
    return parse_document(json.dumps(spec).encode("utf-8"))


def test_examples_list_follows_example_in_order():
    doc = one_operation(
        {"name": "c", "in": "query", "example": "GBP", "schema": {"type": "string", "examples": ["USD", 7, " "]}}
    )
    (param,) = extract_parameters(doc)
    assert [(e.raw_text, e.parsed_kind) for e in param.existing_examples] == [
        ("GBP", "string"), ("USD", "string"), ("7", "integer")  # a blank example is no example
    ]


@pytest.mark.parametrize(
    "bad, warning",
    [
        ({"$ref": "other.yaml#/components/parameters/C"}, "skipping external $ref 'other.yaml#/components/parameters/C'"),
        ({"$ref": "#/components/parameters/Missing"}, "dangling $ref '#/components/parameters/Missing'"),
        ({"in": "query", "schema": {"type": "string"}}, "skipping malformed parameter at /paths/~1a/get/parameters/1"),
    ],
    ids=["external-ref", "dangling-ref", "no-name"],
)
def test_unusable_parameter_is_skipped_with_a_warning(caplog, bad, warning):
    doc = one_operation({"name": "kept", "in": "query", "schema": {"type": "string"}}, bad)
    assert [p.param_name for p in extract_parameters(doc)] == ["kept"]
    assert warning in caplog.text


def test_each_broken_schema_ref_warns_once_per_use(caplog):
    doc = one_operation(
        {"name": "d", "in": "query", "schema": {"$ref": "#/components/schemas/Missing"}},
        {"name": "e", "in": "query", "schema": {"$ref": "other.yaml#/components/schemas/E"}},
        {"name": "c", "in": "query", "schema": {"$ref": "#/components/schemas/C1"}},
    )
    body = {"type": "object", "properties": {"p": {"$ref": "#/components/schemas/Missing"}}}
    doc.root["paths"]["/a"]["get"]["requestBody"] = {"content": {"application/json": {"schema": body}}}
    doc.root["components"] = {"schemas": {"C1": {"$ref": "#/components/schemas/C2"}, "C2": {"$ref": "#/components/schemas/C1"}}}
    params = extract_parameters(doc)
    assert [(p.param_name, p.declared_type.kind) for p in params] == [("d", "unknown"), ("e", "unknown"), ("c", "unknown")]
    warnings = sorted(r.getMessage() for r in caplog.records if r.name == "icicl.extract")
    assert warnings == [
        "cyclic $ref at '#/components/schemas/C1'",
        "dangling $ref '#/components/schemas/Missing'",  # parameter d
        "dangling $ref '#/components/schemas/Missing'",  # property p, which is no scalar field
        "skipping external $ref 'other.yaml#/components/schemas/E'",
    ]


@pytest.mark.parametrize("schema", [None, "string", ["string"]], ids=["null", "text", "list"])
def test_a_schema_that_is_no_object_leaves_the_parameter_its_own_schema(schema):
    doc = one_operation({"name": "q", "in": "query", "schema": schema, "type": "string", "example": "x"})
    (param,) = extract_parameters(doc)
    assert param.declared_type == SchemaType("string")
    assert [e.raw_text for e in param.existing_examples] == ["x"]


def test_recursive_array_items_are_unknown(caplog):
    doc = parse_document(
        b'''{"components": {"schemas": {
            "A": {"type": "array", "items": {"$ref": "#/components/schemas/A"}},
            "B": {"type": "array", "items": {"$ref": "#/components/schemas/C"}},
            "C": {"type": "array", "items": {"type": "array", "items": {"$ref": "#/components/schemas/B"}}}
        }}}'''
    )

    def array(item):
        return SchemaType("array", item_kind=item)

    unknown = SchemaType("unknown")
    nested = {"type": "array", "items": {"type": "array", "items": {"type": "integer"}}}
    assert classify_schema(doc, nested) == array(array(SchemaType("integer")))  # no $ref, no cycle
    assert classify_schema(doc, {"$ref": "#/components/schemas/A"}) == array(unknown)
    assert classify_schema(doc, {"type": "array", "items": {"$ref": "#/components/schemas/A"}}) == array(array(unknown))
    assert classify_schema(doc, {"$ref": "#/components/schemas/B"}) == array(array(array(unknown)))
    assert "recursive array schema at '/components/schemas/B'" in caplog.text


def test_missing_operation_id_synthesized():
    doc = parse_document(
        b'{"openapi": "3.0.0", "info": {"title": "", "version": "1"},'
        b' "paths": {"/p": {"get": {"parameters": [{"name": "n", "in": "query",'
        b' "schema": {"type": "string"}}], "responses": {}}}}}'
    )
    (param,) = extract_parameters(doc, api_name="given")
    assert param.operation_id == "get /p"
    assert param.api_name == "given"


def test_api_name_from_title_and_fallback(corpus_dir):
    doc = load(corpus_dir / "movies.json")
    assert derive_api_name(doc) == "movie-db"
    bare = parse_document(b'{"openapi": "3.0.0", "paths": {}}')
    assert derive_api_name(bare, fallback="file-stem") == "file-stem"


def test_classify_defaults_and_enum_precedence():
    doc = parse_document(b"{}")
    assert classify_schema(doc, None).kind == "unknown"
    assert classify_schema(doc, {"type": "string", "format": "date"}).kind == "datetime"
    assert classify_schema(doc, {"type": "array", "items": {"type": "integer"}}).item_kind.kind == "integer"
    typed_enum = classify_schema(doc, {"type": "string", "enum": ["a", "b"]})
    assert typed_enum.kind == "enum" and typed_enum.enum_values == ("a", "b")
    assert classify_schema(doc, {"enum": []}).kind == "unknown"  # empty enum is no enum
    assert classify_schema(doc, {"enum": [1, 2]}).enum_values == ("1", "2")


@pytest.mark.parametrize(
    "enum, expected",
    [
        ([b"hi", "b", float("nan")], SchemaType("enum", enum_values=("b", "NaN"))),
        ([b"hi", {"a"}], SchemaType("integer")),  # no member left: classified by its type
    ],
    ids=["some-left", "none-left"],
)
def test_enum_member_json_cannot_encode_is_dropped_with_a_warning(caplog, enum, expected):
    doc = parse_document(b"{}")
    assert classify_schema(doc, {"type": "integer", "enum": enum}) == expected
    skipped = [r.getMessage() for r in caplog.records if r.getMessage().startswith("unserializable enum member skipped")]
    assert len(skipped) == len(enum) - len(expected.enum_values)


@pytest.mark.parametrize("kind", ["integer", "number", "boolean", "object"])
def test_parameters_of_one_kind_share_its_name(kind):
    # a mined bank holds one declared type per entry, so a string per entry would cost memory
    doc = one_operation(*({"name": name, "in": "query", "schema": {"type": kind}} for name in ("a", "b")))
    first, second = extract_parameters(doc)
    assert first.declared_type.kind == kind and first.declared_type.kind is second.declared_type.kind


def test_every_pointer_resolves(corpus_dir):
    for name in ("petstore.json", "users.yaml", "payments.yaml", "books.json"):
        doc = load(corpus_dir / name)
        for param in extract_parameters(doc):
            doc.resolve(param.source_pointer)  # must not raise
