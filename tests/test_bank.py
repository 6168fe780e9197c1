"""Bank mining over the fixture corpus and bank file round-trips."""

import gc
import hashlib
import json
import logging
import re
import shutil
import tempfile
import tracemalloc
from array import array
from dataclasses import fields, replace
from itertools import groupby
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icicl import bank as bank_module
from icicl.bank import DEFAULT_INCLUDE, MiningStats, _entry_line, index_path, load_bank, matched_files, mine_bank, save_bank
from icicl.document import MAX_DEPTH, ApiDocument, parse_document
from icicl.errors import CorruptBank, EmptyCorpus
from icicl.extract import derive_api_name, extract_parameters
from icicl.model import LOCATIONS, SCHEMA_KINDS, ApiParameter, ExampleValue, ParameterBank, SchemaType, json_line

from support import (
    DEEP_JSON,
    REQUIRED_NOT_NAMES_SPEC,
    WRONG_TYPED_PARAMETER_FIELDS,
    make_bank,
    make_param,
    set_path,
    unencodable_enum_tree,
)

BIG_INT = "1" * 5000  # over the 4,300-digit limit of `int`


def test_corpus_mining_counts(corpus_dir):
    stats = MiningStats()
    bank = mine_bank(corpus_dir, stats=stats)

    assert stats.files_parsed == 10
    assert stats.files_skipped == 2  # broken.yaml, unsupported.json
    assert stats.parameters_seen == 40
    assert stats.parameters_with_examples == 6
    assert len(bank.entries) == 6
    assert len(bank.source_digest) == 64

    names = {(p.api_name, p.param_name) for p in bank.entries}
    assert names == {
        ("petstore", "limit"),
        ("weather-service", "city"),
        ("payments-api", "amount"),
        ("user-directory", "username"),
        ("book-catalog", "title"),
        ("movie-db", "genre"),
    }


def test_mining_is_deterministic(corpus_dir):
    a = mine_bank(corpus_dir)
    b = mine_bank(corpus_dir)
    assert a.source_digest == b.source_digest
    assert a.entries == b.entries


def test_entries_sorted_by_api_then_pointer(corpus_dir):
    bank = mine_bank(corpus_dir)
    keys = [
        (p.api_name, p.source_pointer, p.operation_id, p.param_name)
        for p in bank.entries
    ]
    assert keys == sorted(keys)


def test_include_filter_limits_files(corpus_dir):
    stats = MiningStats()
    mine_bank(corpus_dir, include_filter=("*.json",), stats=stats)
    assert stats.files_parsed == 4  # petstore, geo, books, movies
    assert stats.files_skipped == 1  # unsupported.json


@pytest.mark.parametrize(
    "pattern,problem",
    [("/abs/*.json", "is absolute"), ("../*.json", "has a '..' part"), ("**/../../*.json", "has a '..' part")],
)
def test_include_that_leaves_the_corpus_is_refused_before_reading(corpus_dir, pattern, problem):
    stats = MiningStats()
    with pytest.raises(ValueError, match=f"^{re.escape(repr(pattern))} {problem}"):
        mine_bank(corpus_dir, include_filter=("*.json", pattern), stats=stats)
    assert stats == MiningStats()


def test_spec_with_integer_over_digit_limit_is_skipped(tmp_path, corpus_dir):
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    (corpus / "big.json").write_text(
        '{"openapi": "3.0.0", "info": {"title": "big", "version": "1", "x-big": %s}, "paths": {}}' % BIG_INT
    )
    (corpus / "big.yaml").write_text(f"openapi: 3.0.0\ninfo:\n  title: big\n  version: '1'\n  x-big: {BIG_INT}\npaths: {{}}\n")
    plain, with_big = MiningStats(), MiningStats()
    expected = mine_bank(corpus_dir, stats=plain)
    assert mine_bank(corpus, stats=with_big).entries == expected.entries
    assert with_big.files_skipped == plain.files_skipped + 2


def test_json_spec_with_non_rfc_number_is_skipped(tmp_path, corpus_dir):
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    for number in ["NaN", "Infinity", "-Infinity", "1e999"]:
        (corpus / f"{number}.json").write_text(
            '{"openapi": "3.0.0", "info": {"title": "t", "version": "1", "x-n": %s}, "paths": {}}' % number
        )
    plain, with_bad = MiningStats(), MiningStats()
    expected = mine_bank(corpus_dir, stats=plain)
    assert mine_bank(corpus, stats=with_bad).entries == expected.entries
    assert with_bad.files_skipped == plain.files_skipped + 4


def test_spec_nested_past_max_depth_is_skipped(tmp_path, corpus_dir):
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    for depth in [MAX_DEPTH, MAX_DEPTH + 1]:
        # the root and `info` are two levels, the lists below `x-deep` the rest
        deep = "[" * (depth - 2) + "1" + "]" * (depth - 2)
        (corpus / f"deep{depth}.json").write_text(
            '{"openapi": "3.0.0", "info": {"title": "t", "version": "1", "x-deep": %s}, "paths": {}}' % deep
        )
        (corpus / f"deep{depth}.yaml").write_text(f"openapi: 3.0.0\ninfo:\n  title: t\n  version: '1'\n  x-deep: {deep}\npaths: {{}}\n")
    plain, with_deep = MiningStats(), MiningStats()
    expected = mine_bank(corpus_dir, stats=plain)
    assert mine_bank(corpus, stats=with_deep).entries == expected.entries
    assert with_deep.files_parsed == plain.files_parsed + 2
    assert with_deep.files_skipped == plain.files_skipped + 2


def test_empty_corpus_raises(tmp_path):
    (tmp_path / "readme.txt").write_text("nothing to see")
    with pytest.raises(EmptyCorpus):
        mine_bank(tmp_path)


def test_duplicate_identities_dropped(tmp_path, corpus_dir):
    # the same spec twice: same pointers, same api name -> one entry survives
    data = (corpus_dir / "petstore.json").read_bytes()
    (tmp_path / "a.json").write_bytes(data)
    (tmp_path / "b.json").write_bytes(data)
    bank = mine_bank(tmp_path)
    assert len(bank.entries) == 1
    assert bank.entries[0].param_name == "limit"


def one_parameter_spec(description, example):
    return json.dumps({
        "openapi": "3.0.0",
        "info": {"title": "rates", "version": "1"},
        "paths": {"/rates": {"get": {"operationId": "getRates", "parameters": [
            {"name": "currency", "in": "query", "description": description, "example": example,
             "schema": {"type": "string"}},
        ]}}},
    })


def test_duplicate_keeps_the_first_mined(tmp_path, caplog):
    # one identity in three files, whose descriptions sort against the order they are mined in
    for name, description, example in [("a", "Zulu: mined first", "USD"), ("b", "Alpha", "EUR"), ("c", "Mike", "GBP")]:
        (tmp_path / f"{name}.json").write_text(one_parameter_spec(description, example))
    (tmp_path / "d.json").write_text(one_parameter_spec("Other", "JPY").replace("/rates", "/other"))
    stats = MiningStats()
    bank = mine_bank(tmp_path, stats=stats)
    assert [(p.source_pointer, p.description, p.existing_examples[0].raw_text) for p in bank.entries] == [
        ("/paths/~1other/get/parameters/0", "Other", "JPY"),
        ("/paths/~1rates/get/parameters/0", "Zulu: mined first", "USD"),
    ]
    dropped = [r.getMessage() for r in caplog.records if "duplicate bank entry dropped" in r.getMessage()]
    assert dropped == ["duplicate bank entry dropped: ('rates', 'getRates', 'currency', '/paths/~1rates/get/parameters/0')"] * 2
    assert stats == MiningStats(files_parsed=4, parameters_seen=4, parameters_with_examples=4)


def test_spec_with_required_members_that_name_no_property_is_mined(tmp_path, caplog):
    (tmp_path / "orders.yaml").write_text(REQUIRED_NOT_NAMES_SPEC)
    (tmp_path / "rates.json").write_text(one_parameter_spec("Base currency", "USD"))
    bank = mine_bank(tmp_path)
    assert [(p.api_name, p.param_name, p.required) for p in bank.entries] == [
        ("orders", "limit", False), ("orders", "note", False), ("orders", "qty", True), ("rates", "currency", False)
    ]
    assert "skipping" not in caplog.text


def test_enum_members_json_cannot_encode_are_dropped_with_one_warning_each(tmp_path, caplog, monkeypatch):
    # no spec text holds such members, so the miner gets this file's tree built in Python
    (tmp_path / "modes.yaml").write_text("a tree built in Python\n")
    parse = bank_module.parse_document
    monkeypatch.setattr(
        bank_module,
        "parse_document",
        lambda data: ApiDocument(unencodable_enum_tree(), "yaml") if data == b"a tree built in Python\n" else parse(data),
    )
    (tmp_path / "rates.json").write_text(one_parameter_spec("Base currency", "USD"))
    bank = mine_bank(tmp_path)
    assert [(p.api_name, p.param_name, p.declared_type) for p in bank.entries] == [
        ("modes", "mode", SchemaType("enum", enum_values=("b",))),
        ("modes", "tags", SchemaType("string")),  # no member left: classified by its type
        ("modes", "limit", SchemaType("integer")),
        ("rates", "currency", SchemaType("string")),
    ]
    assert [r.getMessage() for r in caplog.records] == [
        "unserializable enum member skipped: b'hi'", "unserializable enum member skipped: {'a'}"
    ]


# (title, [(path, operationId, parameter name, example or None)]) per file: few
# distinct values, so that files share an api_name, operations and identities
SPEC_FILES = st.lists(
    st.tuples(
        st.sampled_from(["Rates", "rates", "Users"]),
        st.lists(
            st.tuples(
                st.sampled_from(["/a", "/b", "/c"]),
                st.sampled_from(["getA", "getB"]),
                st.sampled_from(["x", "y"]),
                st.sampled_from(["USD", None]),
            ),
            min_size=1,
            max_size=5,
        ),
    ),
    min_size=1,
    max_size=5,
)

IDENTITY = attrgetter("api_name", "source_pointer", "operation_id", "param_name")


def write_spec_files(directory, files):
    for f, (title, params) in enumerate(files):
        paths = {}
        for path, operation_id, name, example in params:
            operation = paths.setdefault(path, {"get": {"operationId": operation_id, "parameters": []}})["get"]
            param = {"name": name, "in": "query", "description": f"file {f}", "schema": {"type": "string"}}
            operation["parameters"].append(param if example is None else {**param, "example": example})
        spec = {"openapi": "3.0.0", "info": {"title": title, "version": "1"}, "paths": paths}
        (directory / f"spec{f}.json").write_text(json.dumps(spec))


class DroppedWarnings(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        if "duplicate bank entry dropped" in record.getMessage():
            self.messages.append(record.getMessage())


@settings(max_examples=60, deadline=None)
@given(files=SPEC_FILES)
def test_mining_orders_and_dedupes_as_one_stable_sort(files):
    with tempfile.TemporaryDirectory() as directory:
        corpus = Path(directory)
        write_spec_files(corpus, files)
        mined = []
        for path in matched_files(corpus, DEFAULT_INCLUDE):
            doc = parse_document(path.read_bytes())
            params = extract_parameters(doc, api_name=derive_api_name(doc, fallback=path.stem))
            mined += [param for param in params if param.existing_examples]
        kept, dropped = [], []
        for identity, same in groupby(sorted(mined, key=IDENTITY), key=IDENTITY):
            kept.append(next(same))
            dropped += [f"duplicate bank entry dropped: {(identity[0], identity[2], identity[3], identity[1])}"] * len(list(same))

        warnings = DroppedWarnings()
        logging.getLogger("icicl.bank").addHandler(warnings)
        try:
            stats = MiningStats()
            bank = mine_bank(corpus, stats=stats)
        finally:
            logging.getLogger("icicl.bank").removeHandler(warnings)
    assert bank.entries == kept
    assert warnings.messages == dropped
    assert stats.parameters_with_examples == len(mined)


GENERATED_KINDS = [
    ({"type": "string"}, "EUR"),
    ({"type": "integer"}, 42),
    ({"type": "number"}, 2.5),
    ({"type": "boolean"}, True),
    ({"type": "string", "format": "date-time"}, "2024-01-31T12:00:00Z"),
    ({"type": "string", "enum": ["asc", "desc"]}, "asc"),
    ({"type": "array", "items": {"type": "string"}}, ["a", "b"]),
    ({"type": "object"}, {"a": 1}),
]


def write_generated_corpus(directory, files, operations, parameters):
    """`files` JSON specs of `operations` GETs of `parameters` parameters each, every parameter with an example."""
    for f in range(files):
        paths = {}
        for o in range(operations):
            params = []
            for p in range(parameters):
                n = (f * operations + o) * parameters + p
                schema, example = GENERATED_KINDS[n % len(GENERATED_KINDS)]
                params.append({
                    "name": f"field{p}Of{o}", "in": ("query", "header", "cookie")[n % 3],
                    "description": f"The {p}th filter of listing {o} in service {f}, as its API documents it",
                    "schema": schema, "example": example,
                })
            paths[f"/service{f}/items{o}"] = {"get": {"operationId": f"listItems{o}", "parameters": params}}
        spec = {"openapi": "3.0.0", "info": {"title": f"service {f}", "version": "1"}, "paths": paths}
        (directory / f"spec{f}.json").write_text(json.dumps(spec))


@pytest.fixture(scope="module")
def generated_corpus(tmp_path_factory):
    """A generated corpus of 2,000 entries, mined and saved once to warm up:
    module-level caches filled on first use are not the bank's.
    """
    corpus = tmp_path_factory.mktemp("generated")
    write_generated_corpus(corpus, files=40, operations=10, parameters=5)
    save_bank(mine_bank(corpus), tmp_path_factory.mktemp("warm") / "bank.jsonl")
    return corpus


# Bytes that the mined entries of the generated corpus keep, per entry, as
# tracemalloc counts them: 569 on CPython 3.11, whose slotted instances,
# strings and tuples are the sizes 3.10 gives them too, and 758 when each
# entry held its own SchemaType and location string and had no slots. The
# bound leaves 21% headroom.
MINED_BYTES_PER_ENTRY = 690
# Bytes per entry of the generated corpus by which tracemalloc's peak tops
# what it counted before: mining, over the entries it keeps, 53 on CPython
# 3.11 (116 when the whole bank was sorted on a 4-tuple key per entry); and
# saving, over the mined bank, 129 (434 when the postings were lists of ints
# and the identities were sorted through a list of every hash). The bounds
# leave about 50% headroom and fail on either old path.
MINING_PEAK_BYTES_PER_ENTRY = 80
SAVING_PEAK_BYTES_PER_ENTRY = 200


def test_mined_entries_stay_slim(generated_corpus):
    gc.collect()  # garbage left from before, collected untraced during mining, would lower the count
    tracemalloc.start()
    try:
        bank = mine_bank(generated_corpus)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(bank.entries) == 2000
    assert retained / len(bank.entries) < MINED_BYTES_PER_ENTRY


def test_mining_and_saving_peak_little_over_the_entries(generated_corpus, tmp_path):
    gc.collect()  # as above
    tracemalloc.start()
    try:
        bank = mine_bank(generated_corpus)
        mining_peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        mined = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        save_bank(bank, tmp_path / "bank.jsonl")
        saving_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(bank.entries) == 2000
    assert (mining_peak - mined) / len(bank.entries) < MINING_PEAK_BYTES_PER_ENTRY
    assert (saving_peak - mined) / len(bank.entries) < SAVING_PEAK_BYTES_PER_ENTRY


# The SHA-256s of the bank and index saved from tests/fixtures/corpus. A change
# to any byte they hold fails here; one made on purpose bumps BANK_FORMAT or
# INDEX_VERSION, and gives these their new values.
FIXTURE_BANK_SHA256 = "0f395b222601eb5c150b08432a95ffd443ab432af8217d234b1f03e6acf6e5ed"
FIXTURE_INDEX_SHA256 = "95865e6d6999cf97c63ee621a3364f243590cdcef3a9d2a67037ae6f230a0638"


def test_bank_and_index_saved_from_the_fixture_corpus_keep_their_bytes(tmp_path, corpus_dir):
    path = tmp_path / "bank.jsonl"
    save_bank(mine_bank(corpus_dir), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FIXTURE_BANK_SHA256
    assert hashlib.sha256(index_path(path).read_bytes()).hexdigest() == FIXTURE_INDEX_SHA256


# characters JSON escapes, line separators it leaves as they are, and astral ones
ENTRY_TEXTS = st.text(
    st.characters(blacklist_categories=("Cs",))
    | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\u2028", "\u2029", "\x85", "\U0001f600", "\U0010ffff"]),
    max_size=8,
)
ENTRY_PLAIN_TYPES = st.sampled_from(sorted(SCHEMA_KINDS - {"enum", "array"})).map(SchemaType)
ENTRY_ENUM_TYPES = st.lists(ENTRY_TEXTS, min_size=1, max_size=3).map(lambda values: SchemaType("enum", tuple(values)))


@st.composite
def entry_types(draw):
    """A plain or enum type inside zero to five arrays."""
    declared = draw(ENTRY_PLAIN_TYPES | ENTRY_ENUM_TYPES)
    for _ in range(draw(st.integers(0, 5))):
        declared = SchemaType("array", item_kind=declared)
    return declared


ENTRY_EXAMPLES = st.builds(
    ExampleValue.from_raw,
    (ENTRY_TEXTS | st.sampled_from(['"USD"', "42", "-1.5", "true", "null", '[1, "a"]', '{"a": {}}'])).filter(str.strip),
)
ENTRIES = st.builds(
    ApiParameter,
    api_name=ENTRY_TEXTS,
    operation_id=ENTRY_TEXTS,
    param_name=ENTRY_TEXTS.filter(bool),
    description=ENTRY_TEXTS,
    location=st.sampled_from(sorted(LOCATIONS)),
    required=st.booleans(),
    declared_type=entry_types(),
    existing_examples=st.lists(ENTRY_EXAMPLES, min_size=1, max_size=3).map(tuple),
    source_pointer=ENTRY_TEXTS,
)


@settings(max_examples=300, deadline=None)
@given(param=ENTRIES)
def test_entry_line_is_the_json_line_of_the_entry(param):
    assert _entry_line(param, {}) == json_line(param)


def saved_lines(entries):
    """The bytes `_bank_lines` yields for a bank of these entries."""
    bank = ParameterBank(entries=entries, source_digest="d" * 64)
    return b"".join(bank_module._bank_lines(bank, bank_module._PieceDigest(), array("I")))


def test_entry_line_writes_every_field_in_declaration_order(monkeypatch):
    def keys(pairs):
        return [key for key, _ in pairs]

    def enum():
        return SchemaType("enum", ("USD", "€"))

    def types():
        """A plain, an enum and a nested array type, built anew: equal to the last call's, not the same objects."""
        return [SchemaType("string"), enum(), SchemaType("array", item_kind=SchemaType("array", item_kind=enum()))]

    encoded = []

    def recorded(value):
        encoded.append(value)
        return json_line(value)

    monkeypatch.setattr(bank_module, "json_line", recorded)
    entries = [
        replace(make_param(param_name=f"p{i}", examples=("USD", "7")), declared_type=declared)
        for i, declared in enumerate(types() + types())
    ]
    _, *lines = saved_lines(entries).splitlines()
    # one header, then each distinct declared type once, and never a whole entry
    assert encoded == [{"format": 2, "source_digest": "d" * 64}] + [[[declared]] for declared in types()]
    type_keys = [f.name for f in fields(SchemaType)]
    for line, declared in zip(lines, types() * 2, strict=True):
        top = json.loads(line, object_pairs_hook=list)
        assert keys(top) == [f.name for f in fields(ApiParameter)]
        values = dict(top)
        nested = [values["declared_type"]]
        while nested[-1] is not None:
            assert keys(nested[-1]) == type_keys
            nested.append(dict(nested[-1])["item_kind"])
        assert len(nested) == 1 + (3 if declared.kind == "array" else 1)
        assert [keys(example) for example in values["existing_examples"]] == [[f.name for f in fields(ExampleValue)]] * 2


@settings(max_examples=100, deadline=None)
@given(types=st.lists(entry_types(), min_size=1, max_size=3), data=st.data())
def test_bank_lines_of_entries_repeating_equal_types_are_their_json_lines(types, data):
    """However often equal declared types repeat, each entry line is the entry's `json_line`."""
    entries = [
        replace(data.draw(ENTRIES), declared_type=replace(data.draw(st.sampled_from(types))))
        for _ in range(data.draw(st.integers(1, 8)))
    ]
    header = json_line({"format": 2, "source_digest": "d" * 64})
    assert saved_lines(entries) == header + b"".join(map(json_line, entries))


def test_entry_line_of_a_deep_type_is_too_deep_exactly_where_json_line_is():
    """Near the encoder's depth limit, an entry line is written where `json_line`
    writes one, called from as deep a frame, and refused where it is refused.
    """

    def nested(depth, declared):
        for _ in range(depth):
            declared = SchemaType("array", item_kind=declared)
        return declared

    def outcome(write, *args):
        try:
            return write(*args)
        except ValueError as exc:
            return str(exc)

    def json_line_one_frame_down(param):
        return outcome(json_line, param)

    base = make_param(examples=("x",))
    for leaf in (SchemaType("string"), SchemaType("enum", ("USD", "€"))):
        low, high = 1, 2000  # the deepest type json_line writes lies in [low, high)
        while high - low > 1:
            middle = (low + high) // 2
            written = json_line_one_frame_down(replace(base, declared_type=nested(middle, leaf)))
            low, high = (middle, high) if isinstance(written, bytes) else (low, middle)
        for depth in range(low - 3, low + 4):
            param = replace(base, declared_type=nested(depth, leaf))
            assert outcome(_entry_line, param, {}) == json_line_one_frame_down(param), depth


@pytest.mark.parametrize(
    "changes",
    [
        {"required": 1},
        {"api_name": 5},
        {"description": None},
        {"existing_examples": [ExampleValue.from_raw("USD")]},
        {"existing_examples": ({"raw_text": "USD", "parsed_kind": "string"},)},
    ],
    ids=["required-int", "api_name-int", "description-None", "examples-list", "example-dict"],
)
def test_entry_line_of_a_field_of_another_type_is_its_json_line(changes):
    param = replace(make_param(examples=("USD",)), **changes)
    assert _entry_line(param, {}) == json_line(param)


def test_entry_line_of_a_lone_surrogate_raises_as_json_line_does():
    param = make_param(description="\ud800", examples=("x",))
    with pytest.raises(UnicodeEncodeError):
        json_line(param)
    with pytest.raises(UnicodeEncodeError):
        _entry_line(param, {})


def test_save_load_round_trip(tmp_path, corpus_dir):
    bank = mine_bank(corpus_dir)
    path = tmp_path / "bank.jsonl"
    save_bank(bank, path)

    lines = path.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0]) == {"format": 2, "source_digest": bank.source_digest}
    assert len(lines) == 1 + len(bank.entries)

    loaded = load_bank(path)
    assert loaded.source_digest == bank.source_digest
    assert list(loaded.entries) == bank.entries


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bank.jsonl"
    for header in ('{"nope": 1}', DEEP_JSON):
        path.write_text(header + "\n")
        with pytest.raises(CorruptBank) as err:
            load_bank(path)
        assert err.value.line_no == 1


def test_load_reports_bad_line_number(tmp_path, corpus_dir):
    bank = mine_bank(corpus_dir)
    path = tmp_path / "bank.jsonl"
    for bad in ("{broken json", DEEP_JSON):
        save_bank(bank, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(bad + "\n")
        with pytest.raises(CorruptBank) as err:
            load_bank(path)
        assert err.value.line_no == 2 + len(bank.entries)


def test_load_rejects_schema_violation(tmp_path):
    path = tmp_path / "bank.jsonl"
    path.write_text('{"format": 2, "source_digest": "x"}\n{"param_name": "p"}\n')
    with pytest.raises(CorruptBank) as err:
        load_bank(path)
    assert err.value.line_no == 2


def _edit_entry_line(path, line_no, edit):
    """Rewrite one entry line of a saved bank through `edit(payload)`."""
    lines = path.read_text(encoding="utf-8").split("\n")
    payload = json.loads(lines[line_no - 1])
    edit(payload)
    lines[line_no - 1] = json.dumps(payload)
    path.write_text("\n".join(lines), encoding="utf-8")


@pytest.fixture()
def saved_running_bank(tmp_path, running_bank):
    path = tmp_path / "bank.jsonl"
    save_bank(running_bank, path)
    return path


@pytest.mark.parametrize(
    "path, value, message", WRONG_TYPED_PARAMETER_FIELDS.values(), ids=WRONG_TYPED_PARAMETER_FIELDS
)
def test_load_rejects_wrong_typed_field(saved_running_bank, path, value, message):
    _edit_entry_line(saved_running_bank, 3, lambda d: set_path(d, path, value))
    with pytest.raises(CorruptBank, match=message) as err:
        load_bank(saved_running_bank)
    assert err.value.line_no == 3


def test_load_rejects_integer_over_digit_limit(saved_running_bank):
    lines = saved_running_bank.read_text(encoding="utf-8").split("\n")
    assert '"required":false' in lines[2]
    lines[2] = lines[2].replace('"required":false', f'"required":{BIG_INT}')
    saved_running_bank.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(CorruptBank, match="not JSON") as err:
        load_bank(saved_running_bank)
    assert err.value.line_no == 3


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_load_rejects_stored_number_that_is_not_finite(saved_running_bank, text):
    stale = {"raw_text": text, "parsed_kind": "number"}

    _edit_entry_line(saved_running_bank, 3, lambda d: d["existing_examples"].insert(0, stale))
    with pytest.raises(CorruptBank, match=f"number '{text}' is not finite") as err:
        load_bank(saved_running_bank)
    assert err.value.line_no == 3


def test_load_rejects_entry_without_example(saved_running_bank):
    _edit_entry_line(saved_running_bank, 4, lambda d: d.update(existing_examples=[]))
    with pytest.raises(CorruptBank, match="at least one example") as err:
        load_bank(saved_running_bank)
    assert err.value.line_no == 4


def test_load_names_the_column_of_a_control_character(saved_running_bank):
    lines = saved_running_bank.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b"Base currency", b"Base \x01 currency")
    saved_running_bank.write_bytes(b"\n".join(lines))
    column = lines[2].decode("utf-8").index("\x01") + 1
    with pytest.raises(CorruptBank) as err:
        load_bank(saved_running_bank)
    assert str(err.value) == f"corrupt bank at line 3: not JSON: Invalid control character at: column {column}"


def test_load_rejects_non_utf8_line(saved_running_bank):
    lines = saved_running_bank.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b"Base currency", b"Base \xff currency")
    saved_running_bank.write_bytes(b"\n".join(lines))
    with pytest.raises(CorruptBank, match="not UTF-8") as err:
        load_bank(saved_running_bank)
    assert err.value.line_no == 3


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"], ids=["U+2028", "U+2029", "U+0085"])
def test_unicode_line_separators_roundtrip(tmp_path, char):
    bank = make_bank(
        ("api", "currency", f"Currency{char}code", "getRates", f"US{char}D"),
        ("api", "country", "Country code", "getCountry", "BR"),
    )
    path = tmp_path / "bank.jsonl"
    save_bank(bank, path)
    assert char in path.read_text(encoding="utf-8")  # written unescaped
    loaded = load_bank(path)
    assert (list(loaded.entries), loaded.source_digest) == (bank.entries, bank.source_digest)
