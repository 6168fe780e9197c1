"""Bank mining over the fixture corpus and bank file round-trips."""

import gc
import json
import re
import shutil
import tracemalloc

import pytest

from icicl.bank import MiningStats, load_bank, mine_bank, save_bank
from icicl.document import MAX_DEPTH
from icicl.errors import CorruptBank, EmptyCorpus

from support import DEEP_JSON, WRONG_TYPED_PARAMETER_FIELDS, make_bank, set_path

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


# Bytes that the mined entries of the generated corpus keep, per entry, as
# tracemalloc counts them: 564 on CPython 3.11, whose slotted instances,
# strings and tuples are the sizes 3.10 gives them too, and 758 when each
# entry held its own SchemaType and location string and had no slots. The
# bound leaves 22% headroom.
MINED_BYTES_PER_ENTRY = 690


def test_mined_entries_stay_slim(tmp_path):
    write_generated_corpus(tmp_path, files=40, operations=10, parameters=5)
    mine_bank(tmp_path)  # warm up: module-level caches filled on first use are not the bank's
    tracemalloc.start()
    try:
        bank = mine_bank(tmp_path)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(bank.entries) == 2000
    assert retained / len(bank.entries) < MINED_BYTES_PER_ENTRY


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
