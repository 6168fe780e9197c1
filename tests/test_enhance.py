"""Writing examples back into specs: documentation lists and fuzzing overloads."""

import pytest

from icicl.document import ApiDocument, parse_document
from icicl.enhance import EnhancementPlan, enhance_doc, enhance_fuzz
from icicl.errors import PathCollision, PointerMiss
from icicl.model import ExampleValue
from icicl.postprocess import ExampleSet

from support import validate_openapi

CURRENCY_PTR = "/paths/~1v2~1currency~1{currency}/get/parameters/0"


def doc_of(tree):
    import json

    return parse_document(json.dumps(tree).encode("utf-8"), format_hint="json")


def example_set(*texts, provenance=None):
    values = tuple(ExampleValue.from_raw(t) for t in texts)
    if provenance is None:
        provenance = ("greedy",) + ("repeated",) * (len(texts) - 1)
    return ExampleSet(examples=values, provenance=tuple(provenance))


def plan_for(assignments):
    return EnhancementPlan(assignments=assignments)


@pytest.fixture()
def currency_set():
    return example_set(
        "USD", "CAD", "EUR", provenance=("greedy", "repeated", "embedding_selected")
    )


class TestDocMode:
    def test_schema_gains_examples_list(self, running_doc, currency_set):
        out = enhance_doc(running_doc, plan_for({CURRENCY_PTR: currency_set}))
        node = out.resolve(CURRENCY_PTR)
        assert node["schema"]["examples"] == ["USD", "CAD", "EUR"]
        assert "example" not in node
        assert "examples" not in node  # the list lives on the schema, not the parameter

    def test_prior_example_keys_replaced(self, currency_set):
        doc = doc_of({
            "openapi": "3.1.0",
            "info": {"title": "t", "version": "1"},
            "paths": {"/a": {"get": {"operationId": "op", "parameters": [{
                "name": "q", "in": "query", "example": "old",
                "schema": {"type": "string", "example": "older", "examples": ["oldest"]},
            }]}}},
        })
        ptr = "/paths/~1a/get/parameters/0"
        out = enhance_doc(doc, plan_for({ptr: currency_set}))
        node = out.resolve(ptr)
        assert "example" not in node
        assert "example" not in node["schema"]
        assert node["schema"]["examples"] == ["USD", "CAD", "EUR"]

    def test_original_untouched(self, running_doc, currency_set):
        before = running_doc.serialize()
        enhance_doc(running_doc, plan_for({CURRENCY_PTR: currency_set}))
        assert running_doc.serialize() == before

    def test_idempotent(self, running_doc, currency_set):
        plan = plan_for({CURRENCY_PTR: currency_set})
        once = enhance_doc(running_doc, plan)
        twice = enhance_doc(once, plan)
        assert once.serialize() == twice.serialize()

    def test_schemaless_parameter_is_its_own_carrier(self, currency_set):
        # Swagger 2.0 formData parameters have no schema child
        doc = doc_of({
            "swagger": "2.0",
            "info": {"title": "t", "version": "1"},
            "paths": {"/a": {"post": {"operationId": "op", "parameters": [
                {"name": "amount", "in": "formData", "type": "string", "example": "x"},
            ]}}},
        })
        ptr = "/paths/~1a/post/parameters/0"
        out = enhance_doc(doc, plan_for({ptr: currency_set}))
        node = out.resolve(ptr)
        assert node["examples"] == ["USD", "CAD", "EUR"]
        assert "example" not in node

    def test_missing_pointer_raises(self, running_doc, currency_set):
        with pytest.raises(PointerMiss):
            enhance_doc(running_doc, plan_for({"/paths/~1nope/get/parameters/0": currency_set}))


class TestFuzzMode:
    def test_running_spec_gets_enum_and_twin(self, running_doc, currency_set):
        out = enhance_fuzz(running_doc, plan_for({CURRENCY_PTR: currency_set}))

        node = out.resolve(CURRENCY_PTR)
        assert node["schema"]["enum"] == ["USD", "CAD", "EUR"]
        assert node["example"] == "USD"
        assert node["schema"]["type"] == "string"

        twin_path = "/v2/currency/{currency}__icicl_orig"
        paths = out.root["paths"]
        assert twin_path in paths
        twin_op = paths[twin_path]["get"]
        assert twin_op["operationId"] == "v2Currency_orig"
        twin_param = twin_op["parameters"][0]
        assert "enum" not in twin_param.get("schema", {})
        assert "example" not in twin_param

    def test_twin_follows_original_in_key_order(self, running_doc, currency_set):
        out = enhance_fuzz(running_doc, plan_for({CURRENCY_PTR: currency_set}))
        keys = list(out.root["paths"])
        original = "/v2/currency/{currency}"
        assert keys.index(original) + 1 == keys.index(original + "__icicl_orig")

    def test_enhanced_output_passes_structural_validation(self, running_doc, currency_set):
        out = enhance_fuzz(running_doc, plan_for({CURRENCY_PTR: currency_set}))
        assert validate_openapi(out.root) == []

    def test_unassigned_operations_not_duplicated(self, currency_set):
        doc = doc_of({
            "openapi": "3.1.0",
            "info": {"title": "t", "version": "1"},
            "paths": {
                "/a": {
                    "get": {"operationId": "getA", "parameters": [
                        {"name": "q", "in": "query", "schema": {"type": "string"}},
                    ]},
                    "delete": {"operationId": "delA"},
                },
                "/b": {"get": {"operationId": "getB"}},
            },
        })
        ptr = "/paths/~1a/get/parameters/0"
        out = enhance_fuzz(doc, plan_for({ptr: currency_set}))

        paths = out.root["paths"]
        assert set(paths) == {"/a", "/a__icicl_orig", "/b"}
        # only the assigned method is twinned
        assert set(paths["/a__icicl_orig"]) == {"get"}
        assert paths["/a__icicl_orig"]["get"]["operationId"] == "getA_orig"
        assert paths["/a"]["delete"]["operationId"] == "delA"

    def test_non_operation_path_keys_copied_to_twin(self, currency_set):
        doc = doc_of({
            "openapi": "3.1.0",
            "info": {"title": "t", "version": "1"},
            "paths": {"/a": {
                "summary": "about a",
                "get": {"operationId": "getA", "parameters": [
                    {"name": "q", "in": "query", "schema": {"type": "string"}},
                ]},
            }},
        })
        ptr = "/paths/~1a/get/parameters/0"
        out = enhance_fuzz(doc, plan_for({ptr: currency_set}))
        assert out.root["paths"]["/a__icicl_orig"]["summary"] == "about a"

    def test_custom_overload_suffix(self, running_doc, currency_set):
        out = enhance_fuzz(
            running_doc, plan_for({CURRENCY_PTR: currency_set}), overload_suffix="__v0"
        )
        assert "/v2/currency/{currency}__v0" in out.root["paths"]

    def test_collision_with_existing_path_raises(self, currency_set):
        doc = doc_of({
            "openapi": "3.1.0",
            "info": {"title": "t", "version": "1"},
            "paths": {
                "/a": {"get": {"operationId": "getA", "parameters": [
                    {"name": "q", "in": "query", "schema": {"type": "string"}},
                ]}},
                "/a__icicl_orig": {"get": {"operationId": "other"}},
            },
        })
        ptr = "/paths/~1a/get/parameters/0"
        with pytest.raises(PathCollision):
            enhance_fuzz(doc, plan_for({ptr: currency_set}))

    def test_operation_without_opid_twin_has_none_appended(self, currency_set):
        doc = doc_of({
            "openapi": "3.1.0",
            "info": {"title": "t", "version": "1"},
            "paths": {"/a": {"get": {"parameters": [
                {"name": "q", "in": "query", "schema": {"type": "string"}},
            ]}}},
        })
        ptr = "/paths/~1a/get/parameters/0"
        out = enhance_fuzz(doc, plan_for({ptr: currency_set}))
        assert "operationId" not in out.root["paths"]["/a__icicl_orig"]["get"]

    def test_single_example_enum_of_one(self, running_doc):
        only = example_set("USD", provenance=("greedy",))
        out = enhance_fuzz(running_doc, plan_for({CURRENCY_PTR: only}))
        node = out.resolve(CURRENCY_PTR)
        assert node["schema"]["enum"] == ["USD"]
        assert node["example"] == "USD"
