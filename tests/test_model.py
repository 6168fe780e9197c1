"""Core data types: JSON classification, the field encoder, and file round trips."""

import json
import math
from dataclasses import dataclass, fields, replace
from itertools import count

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from icicl.bank import index_path, load_bank, save_bank
from icicl.errors import CorruptBank
from icicl.metrics import GenerationRecord, read_records, write_records
from icicl.model import (
    BLANK_LINE,
    ApiParameter,
    ExampleValue,
    ParameterBank,
    SchemaType,
    classify_json_text,
    decode_fields,
    encode_fields,
    identity_hash,
    json_line,
    json_text,
    read_json_line,
)
from icicl.postprocess import PROVENANCE, ExampleSet, type_check

from support import DEEP_JSON, EXAMPLE_VALUES, make_param, parameters


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


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_a_number_that_is_not_finite_cannot_be_built(text):
    with pytest.raises(ValueError, match=f"number '{text}' is not finite"):
        ExampleValue(text, "number")


def from_python_reference(value):
    """The rule `ExampleValue.from_python` keeps without its shortcuts: a text is
    a string, whatever it reads as; anything else is `from_raw` of its JSON text."""
    if isinstance(value, str):
        return ExampleValue(value, "string")
    return ExampleValue.from_raw(json.dumps(value, ensure_ascii=False))


def outcome(build, value):
    """`build(value)`, or the type and message of what it raised."""
    try:
        return build(value)
    except Exception as exc:
        return type(exc), str(exc)


# texts that do and do not start like JSON, some of which Python reads as JSON but RFC 8259 does not
FROM_PYTHON_TEXTS = st.sampled_from(
    ["", " ", " 1", "\t[1]", "\n", "\u00a01", "-", "-1", "-Infinity", "NaN", "Infinity", "1e999", "[1]", "[1",
     '"a"', "{}", "tru", "true", "nul", "f", "x", "é", "\x0b1", "1" * 5000]
) | st.text(max_size=6)
FROM_PYTHON_NUMBERS = (
    st.integers()
    | st.floats()
    | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 1e308, 5e-324])
)
FROM_PYTHON_VALUES = st.recursive(
    st.none() | st.booleans() | FROM_PYTHON_NUMBERS | FROM_PYTHON_TEXTS,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)


@settings(max_examples=500, deadline=None)
@given(value=FROM_PYTHON_VALUES)
def test_from_python_is_from_raw_of_the_text_or_of_the_json(value):
    assert outcome(ExampleValue.from_python, value) == outcome(from_python_reference, value)


def test_from_python_of_a_text_is_from_raw_whatever_it_starts_with():
    # every character a JSON text may start with, and some it may not
    starts = ' \t\n\r"{[-0123456789tfnNI}]x\x0b\x0c\u00a0\u2028é\U0001f600'
    tails = ["", "1", "[1]", "1]", "rue", "alse", "ull", "aN", "nfinity", "e999", '"', " ", "\x00"]
    read_as_json = 0
    for text in (start + tail for start in starts for tail in tails):
        assert outcome(ExampleValue.from_python, text) == outcome(from_python_reference, text), repr(text)
        if text.strip():
            assert ExampleValue.from_python(text).parsed_kind == "string", repr(text)
            read_as_json += classify_json_text(text) != "string"
    assert read_as_json > 20  # texts such as "1", "[1]", "true" and "null" read as JSON, yet stay strings


@settings(max_examples=300, deadline=None)
@given(text=st.text() | st.sampled_from(["94103", "1.0", "true", "null", "[1]", '"a"', " 7 ", "-0"]))
def test_from_python_of_a_text_gives_back_the_text(text):
    assume(text.strip())
    value = ExampleValue.from_python(text)
    assert value.to_python() == text
    assert value.parsed_kind == "string"


@pytest.mark.parametrize("value", [10**5000, [10**5000]], ids=["int", "list"])
def test_from_python_of_an_integer_over_the_digit_limit_raises_as_before(value):
    # hypothesis cannot draw these: it fails to show such an int
    assert outcome(ExampleValue.from_python, value) == outcome(from_python_reference, value)
    with pytest.raises(ValueError, match="Exceeds the limit"):
        ExampleValue.from_python(value)


def test_encoder_rejects_what_is_not_a_dataclass_instance():
    for value in (object(), {1, 2}, ExampleValue):
        with pytest.raises(TypeError, match="not JSON serializable"):
            json.dumps(value, default=encode_fields)


def test_encoder_reads_the_fields_of_a_dataclass_of_any_size():
    @dataclass
    class Empty:
        pass

    @dataclass(slots=True)  # no __dict__: the fields are read as attributes
    class One:
        a: int

    @dataclass(frozen=True)
    class Two:
        b: str
        a: int

    assert [encode_fields(Empty()), encode_fields(One(1)), encode_fields(Two("x", 2))] == [{}, {"a": 1}, {"b": "x", "a": 2}]
    assert list(encode_fields(Two("x", 2))) == ["b", "a"]


@pytest.mark.parametrize("member", [1, True, 1.0, None, b"USD"], ids=["int", "bool", "float", "None", "bytes"])
def test_schema_type_refuses_an_enum_member_that_is_not_a_text(member):
    # 1, True and 1.0 hash and compare equal, so a type holding one would equal a type JSON writes apart
    with pytest.raises(ValueError, match="enum_values must be texts"):
        SchemaType("enum", ("USD", member))
    assert SchemaType("enum", ("USD", "1")).enum_values == ("USD", "1")


def test_json_text_is_what_json_dumps_writes_of_a_text():
    for text in ["", "USD", '"\\\x00\x1f\x7f', "\u2028\u2029\x85é日\U0001f600", "\ud800"]:
        assert json_text(text) == json.dumps(text, ensure_ascii=False)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(st.characters(blacklist_categories=("Cs",))),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@given(value=JSON_VALUES)
@example(value="line\nbreaks \u2028\u2029\x85 stay")
def test_json_line_is_one_line_that_reads_back(value):
    line = json_line(value)
    assert line.endswith(b"\n") and line.count(b"\n") == 1
    assert read_json_line(line[:-1]) == value


def test_json_line_is_compact_and_leaves_line_separators_unescaped():
    assert json_line({"a": [1, "\u2028\x85é"]}) == '{"a":[1,"\u2028\x85é"]}\n'.encode("utf-8")


@pytest.mark.parametrize(
    "raw, message",
    [
        (b"{\"a\": \"\xff\"}", "not UTF-8: invalid start byte"),
        (b"{broken", "not JSON: Expecting property name enclosed in double quotes: column 2"),
        ('{"é": "\x01"}'.encode("utf-8"), "not JSON: Invalid control character at: column 8"),
        (DEEP_JSON.encode("utf-8"), "not JSON: nested too deeply"),
        (b"1" * 5000, "not JSON: Exceeds the limit (4300 digits)"),
    ],
    ids=["not-utf8", "not-json", "control-character", "too-deep", "over-digit-limit"],
)
def test_read_json_line_says_why_a_line_is_unreadable(raw, message):
    with pytest.raises(ValueError) as err:
        read_json_line(raw)
    assert str(err.value).startswith(message)


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


BLANK_LINES = "\n \t\r\n\u2028\x85\u3000\n".encode("utf-8")


def test_readers_skip_lines_that_are_whitespace_once_decoded(tmp_path):
    for raw in BLANK_LINES.split(b"\n"):
        assert read_json_line(raw) is BLANK_LINE
    assert read_json_line(b"null") is None

    record = GenerationRecord(parameter=NESTED, greedy=None, diverse_raw=(None,), final=None)
    records = tmp_path / "records.jsonl"
    records.write_bytes(BLANK_LINES + json_line(record) + BLANK_LINES)
    assert read_records(records) == [record]

    bank = tmp_path / "bank.jsonl"
    save_bank(ParameterBank(entries=[NESTED], source_digest="d"), bank)
    index_path(bank).unlink()  # so that every line is parsed
    header, entry, _ = bank.read_bytes().split(b"\n")
    bank.write_bytes(header + b"\n" + BLANK_LINES + entry + b"\n" + BLANK_LINES)
    assert list(load_bank(bank).entries) == [NESTED]


@settings(max_examples=30, deadline=None)
@given(params=st.lists(parameters(min_examples=1), min_size=1, max_size=2))
@example(params=[NESTED])
def test_bank_entries_round_trip(tmp_path_factory, params):
    path = tmp_path_factory.mktemp("bank") / "bank.jsonl"
    bank = ParameterBank(entries=params, source_digest="d")
    save_bank(bank, path)
    lines = path.read_bytes().splitlines(keepends=True)
    assert all(json_line(read_json_line(line[:-1])) == line for line in lines)  # header included
    assert json.loads(lines[0]) == {"format": 2, "source_digest": "d"}
    assert [decode_fields(ApiParameter, json.loads(line)) for line in lines[1:]] == params
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
    assert [decode_fields(GenerationRecord, json.loads(line)) for line in lines] == records
    assert read_records(path) == records
    assert_fields_in_declaration_order(records)
    for line, record in zip(lines, records):
        final = json.loads(line)["final"]
        if record.final is not None:
            assert list(final) == ["examples", "greedy_included", "provenance"]
            assert final["greedy_included"] is (record.final.provenance[0] == "greedy")


def array_of_strings(depth):
    """A SchemaType of `depth` arrays around a string, built without recursion."""
    kind = SchemaType("string")
    for _ in range(depth):
        kind = SchemaType("array", item_kind=kind)
    return kind


def array_depth(kind):
    depth = 0
    while kind.item_kind is not None:
        kind, depth = kind.item_kind, depth + 1
    return depth


def test_item_kind_nested_200_levels_reads_back_from_every_file(tmp_path):
    param = replace(NESTED, declared_type=array_of_strings(200))
    bank = tmp_path / "bank.jsonl"
    save_bank(ParameterBank(entries=[param], source_digest="d"), bank)
    through_index = load_bank(bank)
    assert through_index.index is not None and list(through_index.entries) == [param]
    index_path(bank).unlink()
    assert load_bank(bank).entries == [param]

    record = GenerationRecord(parameter=param, greedy=None, diverse_raw=(), final=None)
    records = tmp_path / "records.jsonl"
    write_records([record], records)
    assert read_records(records) == [record]


def test_item_kind_nested_985_levels_loads_or_is_refused_with_its_line(tmp_path):
    deep = '{"kind":"array","item_kind":' * 985 + '{"kind":"string"}' + "}" * 985
    entry = json_line({**encode_fields(NESTED), "declared_type": "DEEP"}).replace(b'"DEEP"', deep.encode())
    bank = tmp_path / "bank.jsonl"
    bank.write_bytes(json_line({"format": 2, "source_digest": "d"}) + entry)
    try:
        (param,) = load_bank(bank).entries
    except CorruptBank as err:
        assert err.line_no == 2
    else:
        assert array_depth(param.declared_type) == 985

    records = tmp_path / "records.jsonl"
    records.write_bytes(b'{"parameter":' + entry[:-1] + b',"greedy":null,"diverse_raw":[],"final":null}\n')
    try:
        (record,) = read_records(records)
    except ValueError as err:
        assert str(err).startswith("unreadable record at line 1: ")
    else:
        assert array_depth(record.parameter.declared_type) == 985


def test_item_kind_nested_985_levels_is_refused_by_both_writers_leaving_no_file(tmp_path):
    param = replace(NESTED, declared_type=array_of_strings(985))
    with pytest.raises(ValueError, match="nested too deeply"):
        save_bank(ParameterBank(entries=[param], source_digest="d"), tmp_path / "bank.jsonl")
    record = GenerationRecord(parameter=param, greedy=None, diverse_raw=(), final=None)
    with pytest.raises(ValueError, match="nested too deeply"):
        write_records([record], tmp_path / "records.jsonl")
    assert list(tmp_path.iterdir()) == []


@settings(max_examples=200, deadline=None)
@given(keys=st.lists(st.tuples(st.sampled_from(["a", "b", ""]), st.sampled_from(["/p", "/q", "/p/0"])), max_size=12))
def test_bank_identities_map_each_identity_to_its_entries(keys):
    bank = ParameterBank(entries=[make_param(api_name=api, source_pointer=ptr) for api, ptr in keys])
    for key in [(api, ptr) for api in ("a", "b", "", "c") for ptr in ("/p", "/q", "/p/0", "/r")]:
        assert bank.entries_with(*key) == tuple(i for i, k in enumerate(keys) if k == key)
    assert bank.identities is bank.identities


def top_byte_mates(size):
    """`size` api names whose identities with pointer "/p" hash apart but share the hash's top byte."""
    by_top = {}
    for n in count():
        mates = by_top.setdefault(identity_hash(f"api{n}", "/p") >> 24, [])
        mates.append(f"api{n}")
        if len(mates) == size:
            return mates


# distinct hashes of one top byte, and hashes on both sides of 2**31
IDENTITY_KEYS = [(api, "/p") for api in top_byte_mates(3)] + [("a", "/q"), ("", "/p/0"), ("ünï", "/r")]


@settings(max_examples=200, deadline=None)
@given(keys=st.lists(st.sampled_from(IDENTITY_KEYS) | st.tuples(st.text(max_size=3), st.just("/p")), max_size=40))
def test_bank_identities_are_one_stable_sort_by_hash(keys):
    assert {identity_hash(*key) >> 31 for key in IDENTITY_KEYS} == {0, 1}
    # built by hand, so the bank holds entries of one identity, hence of equal hash
    bank = ParameterBank(entries=[make_param(api_name=api, source_pointer=ptr) for api, ptr in keys])
    hashes = [identity_hash(*key) for key in keys]
    order = sorted(range(len(keys)), key=hashes.__getitem__)
    assert list(bank.identities[1]) == order
    assert list(bank.identities[0]) == [hashes[i] for i in order]
