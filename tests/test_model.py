"""Core data types: JSON classification, the field encoder, and file round trips."""

import json
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icicl.bank import load_bank, save_bank
from icicl.metrics import GenerationRecord, read_records, write_records
from icicl.model import (
    ApiParameter,
    ExampleValue,
    ParameterBank,
    SchemaType,
    classify_json_text,
    encode_fields,
)
from icicl.postprocess import PROVENANCE, ExampleSet, type_check

from support import EXAMPLE_VALUES, make_param, parameters


@pytest.mark.parametrize(
    "text",
    [
        "NaN",
        "Infinity",
        "-Infinity",
        "1e999",
        "-1e999",
        "[1, NaN]",
        '{"a": Infinity}',
        pytest.param("1" * 5000, id="5000-digit-integer"),
        pytest.param("[" + "1" * 5000 + "]", id="[5000-digit-integer]"),
    ],
)
def test_text_only_python_reads_as_json_is_a_string(text):
    assert classify_json_text(text) == "string"
    assert not type_check(ExampleValue.from_raw(text), SchemaType("number"))


@pytest.mark.parametrize("text", ["1.5", "-0.0", "1e308", "1e-999", "[1.5, 2]"])
def test_finite_numbers_stay_json(text):
    assert classify_json_text(text) == ("array" if text.startswith("[") else "number")


def test_encoder_rejects_what_is_not_a_dataclass_instance():
    for value in (object(), {1, 2}, ExampleValue):
        with pytest.raises(TypeError, match="not JSON serializable"):
            json.dumps(value, default=encode_fields)


# ---------------------------------------------------------------------------
# every object a file holds reads back equal to the one written

EXAMPLE_SETS = st.integers(1, 3).flatmap(
    lambda n: st.builds(
        ExampleSet,
        examples=st.lists(EXAMPLE_VALUES, min_size=n, max_size=n).map(tuple),
        provenance=st.lists(st.sampled_from(PROVENANCE), min_size=n, max_size=n).map(tuple),
    )
)
RECORDS = st.builds(
    GenerationRecord,
    parameter=parameters(min_examples=0),
    greedy=st.none() | EXAMPLE_VALUES,
    diverse_raw=st.lists(st.none() | EXAMPLE_VALUES, max_size=10).map(tuple),
    final=st.none() | EXAMPLE_SETS,
)

NESTED = ApiParameter(
    api_name="ünï\u2028code",
    operation_id="get\x85Rates",
    param_name="codes",
    description="ISO 4217 — 通貨",
    location="query",
    required=True,
    declared_type=SchemaType("array", item_kind=SchemaType("array", item_kind=SchemaType("enum", ("USD", "€")))),
    existing_examples=(ExampleValue.from_raw('[["USD"]]'), ExampleValue.from_raw("US\u2028D"), ExampleValue.from_raw("€")),
    source_pointer="/paths/~1rates/get/parameters/0",
)


def assert_fields_in_declaration_order(obj):
    """Every dataclass the encoder meets writes exactly its fields, in order."""
    if isinstance(obj, (tuple, list)):
        for item in obj:
            assert_fields_in_declaration_order(item)
    elif obj is not None and not isinstance(obj, (str, bool)):
        encoded = encode_fields(obj)
        assert list(encoded) == [f.name for f in fields(obj)]
        for value in encoded.values():
            assert_fields_in_declaration_order(value)


@settings(max_examples=30, deadline=None)
@given(params=st.lists(parameters(min_examples=1), min_size=1, max_size=2))
@example(params=[NESTED])
def test_bank_entries_round_trip(tmp_path_factory, params):
    path = tmp_path_factory.mktemp("bank") / "bank.jsonl"
    bank = ParameterBank(entries=params, source_digest="d")
    save_bank(bank, path)
    lines = path.read_bytes().split(b"\n")[1:-1]
    assert [ApiParameter.from_dict(json.loads(line)["parameter"]) for line in lines] == params
    loaded = load_bank(path)
    assert (list(loaded.entries), loaded.source_digest) == (bank.entries, bank.source_digest)
    assert_fields_in_declaration_order(params)


@settings(max_examples=30, deadline=None)
@given(records=st.lists(RECORDS, min_size=1, max_size=2))
@example(
    records=[
        GenerationRecord(parameter=NESTED, greedy=None, diverse_raw=(None,) * 10, final=None),
        *(
            GenerationRecord(
                parameter=NESTED,
                greedy=ExampleValue.from_raw("€"),
                diverse_raw=(None, ExampleValue.from_raw("US\u2028D")),
                final=ExampleSet(examples=(ExampleValue.from_raw("€"),), provenance=(p,)),
            )
            for p in PROVENANCE
        ),
    ]
)
def test_records_round_trip(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("records") / "records.jsonl"
    write_records(records, path)
    lines = path.read_bytes().split(b"\n")[:-1]
    assert [GenerationRecord.from_dict(json.loads(line)) for line in lines] == records
    assert read_records(path) == records
    assert_fields_in_declaration_order(records)
    for line, record in zip(lines, records):
        final = json.loads(line)["final"]
        if record.final is not None:
            assert list(final) == ["examples", "greedy_included", "provenance"]
            assert final["greedy_included"] is (record.final.provenance[0] == "greedy")


@settings(max_examples=200, deadline=None)
@given(keys=st.lists(st.tuples(st.sampled_from(["a", "b", ""]), st.sampled_from(["/p", "/q", "/p/0"])), max_size=12))
def test_bank_identities_map_each_identity_to_its_entries(keys):
    bank = ParameterBank(entries=[make_param(api_name=api, source_pointer=ptr) for api, ptr in keys])
    naive = {key: tuple(i for i, k in enumerate(keys) if k == key) for key in set(keys)}
    assert bank.identities == naive
    assert bank.identities is bank.identities
