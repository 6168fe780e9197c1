"""Generated API descriptions as the oracle for extract and enhance.

Every generated document reads back as the tree it was written from, and
extraction and both enhance modes keep their promises on it. Re-extracting
what doc and fuzz mode wrote is checked on documents without `$ref`: a value
written beside a schema `$ref` is not read back, and the definition a `$ref`
names is shared by every use.
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from icicl.document import ApiDocument, document_version, join_pointer, parse_document
from icicl.enhance import DEFAULT_OVERLOAD_SUFFIX, ORIG_OPERATION_SUFFIX, EnhancementPlan, enhance_doc, enhance_fuzz
from icicl.errors import UnsupportedVersion
from icicl.extract import located_parameters
from icicl.model import ExampleValue, SchemaType
from icicl.postprocess import ExampleSet

from support import ASSIGNED_VALUES, GeneratedSpec, api_documents

GENERATED = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# per located pointer in sorted order, its values, or None for a pointer left unassigned
VALUE_LISTS = st.lists(st.none() | st.lists(ASSIGNED_VALUES, min_size=1, max_size=3), max_size=8)


def one_operation_spec(*parameters):
    tree = {
        "openapi": "3.0.3",
        "info": {"title": "T", "version": "1"},
        "paths": {"/a": {"get": {"operationId": "getA", "parameters": list(parameters), "responses": {}}}},
    }
    return GeneratedSpec(tree, json.dumps(tree))


def assignments_for(located, value_lists):
    pointers = sorted({param.source_pointer for param, _path, _method in located})
    return {
        pointer: ExampleSet(
            examples=tuple(map(ExampleValue.from_python, values)),
            provenance=("greedy",) + ("repeated",) * (len(values) - 1),
        )
        for pointer, values in zip(pointers, value_lists)
        if values is not None
    }


def located_or_none(doc):
    try:
        return located_parameters(doc)
    except UnsupportedVersion:
        assert document_version(doc) is None
        return None


@GENERATED
@given(spec=api_documents(), value_lists=VALUE_LISTS)
@example(  # a parameter's schema and an array's items that $ref a text
    spec=one_operation_spec(
        {"name": "s", "in": "query", "schema": {"$ref": "#/info/title"}},
        {"name": "a", "in": "query", "schema": {"type": "array", "items": {"$ref": "#/info/title"}}},
    ),
    value_lists=[["x"], ["y"]],
)
def test_every_generated_document(spec, value_lists):
    doc = parse_document(spec.text)
    assert repr(doc.root) == repr(spec.tree)
    for fmt in ("json", "yaml"):
        assert repr(parse_document(ApiDocument(doc.root, fmt).serialize(), format_hint=fmt).root) == repr(doc.root)

    located = located_or_none(doc)
    if located is None:
        return
    assert located_parameters(doc) == located == located_parameters(parse_document(spec.text))
    for param, _path, _method in located:
        doc.resolve(param.source_pointer)

    plan = EnhancementPlan.of(located, assignments_for(located, value_lists))
    once = enhance_doc(doc, plan)
    assert enhance_doc(once, plan).root == once.root

    paths = enhance_fuzz(doc, plan).root["paths"]
    for path, methods in plan.methods.items():
        twin = paths[path + DEFAULT_OVERLOAD_SUFFIX]
        for method in methods:
            operation_id = doc.root["paths"][path][method].get("operationId")
            if isinstance(operation_id, str) and operation_id:
                assert twin[method]["operationId"] == operation_id + ORIG_OPERATION_SUFFIX


def enum_of(examples):
    """The enum type extraction gives the values fuzz mode writes: a text as itself, anything else as its JSON."""
    values = (e.to_python() for e in examples)
    return SchemaType("enum", tuple(v if isinstance(v, str) else json.dumps(v, ensure_ascii=False) for v in values))


@GENERATED
@given(spec=api_documents(refs=False), value_lists=VALUE_LISTS)
@example(  # a parameter whose schema is no object is its own schema
    spec=one_operation_spec({"name": "q", "in": "query", "schema": None, "type": "string"}), value_lists=[["x", "y"]]
)
def test_what_each_mode_writes_reads_back(spec, value_lists):
    doc = parse_document(spec.text)
    located = located_or_none(doc)
    if located is None:
        return
    assignments = assignments_for(located, value_lists)
    plan = EnhancementPlan.of(located, assignments)

    documented = located_parameters(parse_document(enhance_doc(doc, plan).serialize()))
    assert {param.source_pointer for param, _path, _method in documented} >= set(assignments)
    for param, _path, _method in documented:
        if param.source_pointer in assignments:
            assert param.existing_examples == assignments[param.source_pointer].examples

    declared = {(param.source_pointer, method): param.declared_type for param, _path, method in located}
    fuzzed = located_parameters(parse_document(enhance_fuzz(doc, plan).serialize()))
    for param, path, method in fuzzed:
        if path.endswith(DEFAULT_OVERLOAD_SUFFIX):  # a twin keeps the input's type
            original = path[: -len(DEFAULT_OVERLOAD_SUFFIX)]
            pointer = join_pointer("paths", original) + param.source_pointer[len(join_pointer("paths", path)) :]
            assert param.declared_type == declared[(pointer, method)]
        elif param.source_pointer in assignments:
            assert param.declared_type == enum_of(assignments[param.source_pointer].examples)
