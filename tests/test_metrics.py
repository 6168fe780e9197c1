"""Intrinsic metrics, aggregates, label ingestion, and report output."""

import dataclasses
import json
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icicl.errors import MalformedLabels
from icicl.metrics import (
    GenerationRecord,
    IntrinsicReport,
    ParameterMetrics,
    build_report,
    format_summary,
    ingest_labels,
    metric_diversity,
    metric_type_correct,
    metric_unique,
    read_records,
    write_records,
    write_report_csv,
    write_report_json,
)
from icicl.model import ExampleValue, encode_fields
from icicl.postprocess import ExampleSet

from support import (
    DEEP_JSON,
    WRONG_TYPED_PARAMETER_FIELDS,
    FixtureEmbedder,
    diversity_oracle,
    make_param,
    set_path,
    table_vector,
)


def ev(text):
    return ExampleValue.from_raw(text)


def final_set(*texts):
    if not texts:
        return None
    prov = ("greedy",) + ("repeated",) * (len(texts) - 1)
    return ExampleSet(examples=tuple(ev(t) for t in texts), provenance=prov)


def record(greedy, diverse, final, *, kind="string", api="api-x", ptr="/paths/~1a/get/parameters/0", name="p"):
    return GenerationRecord(
        parameter=make_param(param_name=name, api_name=api, kind=kind, source_pointer=ptr),
        greedy=None if greedy is None else ev(greedy),
        diverse_raw=tuple(None if d is None else ev(d) for d in diverse),
        final=final,
    )


def six_record_fixture():
    """Hand-built records with known metric outcomes; see the asserts below."""
    return [
        # clean: every generation a string, 8 distinct values, rich final set
        record(
            "USD",
            ["USD", "GPP", "USD", "CAD", "ZAR", "CAD", "INR", "MXN", "CNY", "EUR"],
            final_set("USD", "CAD", "EUR"),
            api="a0", ptr="/p/0",
        ),
        # one diverse slot is a JSON array: type fails, uniqueness still holds
        record("ok", ["a", "b", "[1]"], None, api="a1", ptr="/p/1"),
        # greedy missing entirely
        record(None, ["a", "b", "c"], None, api="a2", ptr="/p/2"),
        # ten copies of one value: type-correct but not unique
        record("same", ["same"] * 10, final_set("same"), api="a3", ptr="/p/3"),
        # two casefold-distinct values is still below the uniqueness bar
        record("USD", ["USD", "usd", "CAD", "Cad"], None, api="a4", ptr="/p/4"),
        # absent slots don't count against anything; orthogonal final pair
        record("INR", ["INR", "MXN", None, None, "GPP"], final_set("INR", "MXN"), api="a5", ptr="/p/5"),
    ]


class TestPerRecordMetrics:
    def test_six_records_individually(self):
        r = six_record_fixture()
        assert [metric_type_correct(x) for x in r] == [True, False, False, True, True, True]
        assert [metric_unique(x) for x in r] == [True, True, True, False, False, True]

    def test_aggregates_are_exact_fractions(self):
        report = build_report(six_record_fixture(), FixtureEmbedder())
        agg = report.aggregates()
        assert agg["records"] == 6
        assert agg["type_pct"] == 4 / 6
        assert agg["unique_pct"] == 4 / 6
        assert agg["both_pct"] == 2 / 6
        assert agg["correct_pct"] is None

    def test_diversity_against_brute_force(self):
        embedder = FixtureEmbedder()

        def embed_fn(text):
            return table_vector(text)

        for rec in six_record_fixture():
            got = metric_diversity(rec.final, embedder)
            if rec.final is None or len(rec.final.examples) < 2:
                assert got is None
            else:
                want = diversity_oracle([e.raw_text for e in rec.final.examples], embed_fn)
                assert got == pytest.approx(want, abs=1e-9)

    def test_orthogonal_pair_is_exactly_one(self):
        assert metric_diversity(final_set("INR", "MXN"), FixtureEmbedder()) == 1.0

    def test_identical_texts_are_exactly_zero(self):
        assert metric_diversity(final_set("x", "x"), FixtureEmbedder()) == 0.0

    def test_single_example_has_no_diversity(self):
        assert metric_diversity(final_set("x"), FixtureEmbedder()) is None
        assert metric_diversity(None, FixtureEmbedder()) is None

    def test_nineteen_of_twenty_is_ninety_five_percent(self):
        records = [record("v", ["a", "b", "c"], None, ptr=f"/p/{i}") for i in range(19)]
        records.append(record("7", ["a", "b", "c"], None, kind="string", ptr="/p/19"))
        agg = build_report(records, FixtureEmbedder()).aggregates()
        assert agg["type_pct"] == 0.95

    def test_unique_counts_only_present_slots(self):
        assert metric_unique(record("g", ["a", None, "b", None, "c"], None)) is True
        assert metric_unique(record("g", ["a", None, "b", None], None)) is False

    def test_type_ignores_absent_slots(self):
        assert metric_type_correct(record("g", [None] * 10, None)) is True

    def test_empty_report_aggregates(self):
        agg = IntrinsicReport(embedding_provider="x").aggregates()
        assert agg == {
            "records": 0,
            "type_pct": None,
            "unique_pct": None,
            "both_pct": None,
            "mean_diversity": None,
            "correct_pct": None,
        }


class TestRecordIO:
    def test_roundtrip(self, tmp_path):
        records = six_record_fixture()
        path = tmp_path / "records.jsonl"
        write_records(records, path)
        back = read_records(path)
        assert back == records
        assert path.read_text(encoding="utf-8").count("\n") == 6

    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records([], path)
        assert read_records(path) == []

    def test_one_slot_per_diverse_call(self, tmp_path):
        records = [record("USD", ["USD", None, "CAD"], None), record(None, [], None)]
        path = tmp_path / "records.jsonl"
        write_records(records, path)
        assert [len(r.diverse_raw) for r in read_records(path)] == [3, 0]

    def test_old_ten_slot_file_loads(self, tmp_path):
        line = json.loads(json.dumps(record("USD", ["USD", "EUR", "CAD"], None), default=encode_fields))
        line["diverse_raw"] += [None] * 7  # the former fixed width padded with nulls
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(line) + "\n", encoding="utf-8")
        (back,) = read_records(path)
        assert len(back.diverse_raw) == 10
        assert metric_unique(back) and metric_type_correct(back)

    def test_missing_keys_read_as_none_or_empty(self, tmp_path):
        written = record("USD", ["EUR"], final_set("USD"))
        line = json.loads(json.dumps(written, default=encode_fields))
        del line["greedy"], line["final"]
        del line["parameter"]["declared_type"]["enum_values"], line["parameter"]["declared_type"]["item_kind"]
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(line) + "\n", encoding="utf-8")
        assert read_records(path) == [dataclasses.replace(written, greedy=None, final=None)]

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"], ids=["U+2028", "U+2029", "U+0085"])
    def test_unicode_line_separators_roundtrip(self, tmp_path, char):
        records = [record(f"USD{char}EUR", [f"a{char}b", "CAD"], final_set(f"USD{char}EUR"))]
        path = tmp_path / "records.jsonl"
        write_records(records, path)
        assert char in path.read_text(encoding="utf-8")  # written unescaped
        assert read_records(path) == records

    def test_unreadable_line_numbered(self, tmp_path):
        path = tmp_path / "records.jsonl"
        for bad in ("{broken", DEEP_JSON):
            write_records(six_record_fixture()[:1], path)
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(bad + "\n")
            with pytest.raises(ValueError, match="line 2"):
                read_records(path)

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_stored_number_that_is_not_finite_is_unreadable(self, tmp_path, text):
        line = json.loads(json.dumps(record("1.5", [], None), default=encode_fields))
        line["greedy"] = {"raw_text": text, "parsed_kind": "number"}
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(line) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"unreadable record at line 1: number '{text}' is not finite"):
            read_records(path)

    def test_control_character_numbered_by_line_and_column(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records(six_record_fixture()[:3], path)
        lines = path.read_bytes().split(b"\n")
        column = lines[1].index(b'"a1"') + 3
        lines[1] = lines[1].replace(b'"a1"', b'"a\x01"', 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError) as err:
            read_records(path)
        assert str(err.value) == f"unreadable record at line 2: not JSON: Invalid control character at: column {column}"

    def test_non_utf8_line_numbered(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records(six_record_fixture()[:3], path)
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1].replace(b"a1", b"a\xff", 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError, match="unreadable record at line 2"):
            read_records(path)


WRONG_TYPED_RECORD_FIELDS = {
    **{f"parameter-{k}": (("parameter", *where), v, m) for k, (where, v, m) in WRONG_TYPED_PARAMETER_FIELDS.items()},
    "greedy-raw_text": (("greedy", "raw_text"), 5, "raw_text must be a string"),
    "diverse-raw_text": (("diverse_raw", 1, "raw_text"), 5, "raw_text must be a string"),
    "final-raw_text": (("final", "examples", 0, "raw_text"), ["USD"], "raw_text must be a string"),
    "diverse_raw": (("diverse_raw",), "ab", "diverse_raw must be a list, not str"),
    "provenance": (("final", "provenance"), [5], "an item of provenance must be a string, not int"),
}


@pytest.mark.parametrize("where, value, message", WRONG_TYPED_RECORD_FIELDS.values(), ids=WRONG_TYPED_RECORD_FIELDS)
def test_wrong_typed_field_is_unreadable_record(tmp_path, where, value, message):
    full = GenerationRecord(
        parameter=make_param(examples=("USD",)),
        greedy=ev("USD"),
        diverse_raw=(None, ev("EUR")),
        final=final_set("USD"),
    )
    path = tmp_path / "records.jsonl"
    write_records([full, full], path)
    lines = path.read_text(encoding="utf-8").split("\n")
    line = json.loads(lines[1])
    set_path(line, where, value)
    lines[1] = json.dumps(line)
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match=f"unreadable record at line 2: {message}"):
        read_records(path)


def labels_csv(tmp_path, body):
    path = tmp_path / "labels.csv"
    path.write_text(body, encoding="utf-8")
    return path


class TestLabels:
    def make_report(self):
        return build_report(six_record_fixture(), FixtureEmbedder())

    def test_header_applied_and_correct_pct(self, tmp_path):
        report = self.make_report()
        path = labels_csv(tmp_path, "api_name,source_pointer,correct\na0,/p/0,1\na1,/p/1,0\n")
        assert ingest_labels(report, path) == 2
        agg = report.aggregates()
        assert agg["correct_pct"] == 0.5  # over labeled rows only

    def test_headerless_file_also_works(self, tmp_path):
        report = self.make_report()
        path = labels_csv(tmp_path, "a0,/p/0,1\n")
        assert ingest_labels(report, path) == 1

    def test_duplicate_keeps_last_and_warns(self, tmp_path, caplog):
        report = self.make_report()
        path = labels_csv(tmp_path, "a0,/p/0,1\na0,/p/0,0\n")
        with caplog.at_level(logging.WARNING, logger="icicl.metrics"):
            applied = ingest_labels(report, path)
        assert applied == 1
        assert report.per_parameter[0].correct_label is False
        assert any("duplicate" in r.message for r in caplog.records)

    def test_unmatched_label_warns(self, tmp_path, caplog):
        report = self.make_report()
        path = labels_csv(tmp_path, "ghost,/p/99,1\n")
        with caplog.at_level(logging.WARNING, logger="icicl.metrics"):
            assert ingest_labels(report, path) == 0
        assert any("matches no record" in r.message for r in caplog.records)

    def test_wrong_column_count_raises_with_line(self, tmp_path):
        report = self.make_report()
        path = labels_csv(tmp_path, "a0,/p/0,1\na1,/p/1\n")
        with pytest.raises(MalformedLabels) as exc_info:
            ingest_labels(report, path)
        assert exc_info.value.line_no == 2

    def test_bad_correct_value_raises(self, tmp_path):
        report = self.make_report()
        path = labels_csv(tmp_path, "a0,/p/0,yes\n")
        with pytest.raises(MalformedLabels) as exc_info:
            ingest_labels(report, path)
        assert exc_info.value.line_no == 1

    def test_blank_lines_skipped(self, tmp_path):
        report = self.make_report()
        path = labels_csv(tmp_path, "\na0,/p/0,1\n\n")
        assert ingest_labels(report, path) == 1

    def test_byte_order_mark_before_header(self, tmp_path):
        report = self.make_report()
        path = labels_csv(tmp_path, "\ufeffapi_name,source_pointer,correct\na0,/p/0,1\n")
        assert ingest_labels(report, path) == 1
        assert report.per_parameter[0].correct_label is True


class TestReportOutput:
    def test_format_summary_shape(self):
        report = build_report(six_record_fixture(), FixtureEmbedder())
        line = format_summary(report)
        assert line.startswith("records 6  type 66.7%  unique 66.7%  both 33.3%  div ")
        assert "correct" not in line

    def test_format_summary_with_labels(self, tmp_path):
        report = build_report(six_record_fixture(), FixtureEmbedder())
        ingest_labels(report, labels_csv(tmp_path, "a0,/p/0,1\n"))
        assert format_summary(report).endswith("correct 100.0%")

    def test_csv_columns_and_precision(self, tmp_path):
        report = build_report(six_record_fixture(), FixtureEmbedder())
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "api_name,param_name,source_pointer,type_correct,unique,both,diversity,correct_label"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "a0"
        assert first[3:6] == ["1", "1", "1"]
        assert first[6] == "0.213333"  # six decimal places
        assert first[7] == ""

    def test_json_report_written(self, tmp_path):
        import json

        report = build_report(six_record_fixture(), FixtureEmbedder())
        path = tmp_path / "report.json"
        write_report_json(report, path)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["embedding_provider"] == "fixture-table"
        assert data["aggregates"]["records"] == 6
        assert len(data["per_parameter"]) == 6


WORDS = ["USD", "EUR", "CAD", "GPP", "7", "[1]"]


@settings(max_examples=60, deadline=None)
@given(
    specs=st.lists(
        st.tuples(
            st.one_of(st.none(), st.sampled_from(WORDS)),
            st.lists(st.one_of(st.none(), st.sampled_from(WORDS)), max_size=10),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_both_never_exceeds_either_metric(specs):
    records = [
        record(greedy, diverse, None, ptr=f"/p/{i}") for i, (greedy, diverse) in enumerate(specs)
    ]
    agg = build_report(records, FixtureEmbedder()).aggregates()
    assert agg["both_pct"] <= min(agg["type_pct"], agg["unique_pct"]) + 1e-12
