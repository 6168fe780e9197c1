"""Intrinsic quality metrics over generation records, plus label ingestion."""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass, field, fields
from itertools import combinations
from pathlib import Path
from typing import Any

from .embeddings import EmbeddingProvider, cosine
from .errors import MalformedLabels
from .model import BLANK_LINE, ApiParameter, ExampleValue, decode_fields, encode_fields, json_line, read_json_line, write_atomic, write_json
from .postprocess import ExampleSet, type_check

log = logging.getLogger(__name__)

UNIQUE_THRESHOLD = 3


@dataclass(frozen=True)
class GenerationRecord:
    """Everything one parameter's enrichment produced, successful or not.

    `diverse_raw` holds one slot per diverse call that ran, in call order; a
    slot is None when that generation did not parse.
    """

    parameter: ApiParameter
    greedy: ExampleValue | None
    diverse_raw: tuple[ExampleValue | None, ...]
    final: ExampleSet | None


def write_records(records: list[GenerationRecord], path: str | Path) -> None:
    write_atomic(path, map(json_line, records))


def read_records(path: str | Path) -> list[GenerationRecord]:
    """The records of a JSON-lines file, as `model.json_line` writes them."""
    records = []
    for line_no, raw in enumerate(Path(path).read_bytes().split(b"\n"), start=1):
        try:
            payload = read_json_line(raw)
            if payload is not BLANK_LINE:
                records.append(decode_fields(GenerationRecord, payload))
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"unreadable record at line {line_no}: {exc}") from exc
    return records


def metric_type_correct(record: GenerationRecord) -> bool:
    """True iff the greedy and every present diverse generation fit the declared type."""
    if record.greedy is None or not type_check(record.greedy, record.parameter.declared_type):
        return False
    return all(
        type_check(v, record.parameter.declared_type)
        for v in record.diverse_raw
        if v is not None
    )


def metric_unique(record: GenerationRecord) -> bool:
    """True iff the diverse generations contain 3+ case-insensitively distinct values."""
    distinct = {v.raw_text.casefold() for v in record.diverse_raw if v is not None}
    return len(distinct) >= UNIQUE_THRESHOLD


def metric_diversity(final: ExampleSet | None, embedder: EmbeddingProvider) -> float | None:
    """1 minus the mean pairwise cosine of the final examples, clipped to [0, 1].

    Undefined (None) when fewer than two examples survived selection.
    """
    if final is None or len(final.examples) < 2:
        return None
    vectors = embedder.embed([e.raw_text for e in final.examples])
    sims = [cosine(a, b) for a, b in combinations(vectors, 2)]
    value = 1.0 - sum(sims) / len(sims)
    return max(0.0, min(1.0, value))


@dataclass
class ParameterMetrics:
    api_name: str
    param_name: str
    source_pointer: str
    type_correct: bool
    unique: bool
    both: bool
    diversity: float | None
    correct_label: bool | None = None


@dataclass
class IntrinsicReport:
    """Per-parameter metric rows plus their plain-mean aggregates."""

    embedding_provider: str
    per_parameter: list[ParameterMetrics] = field(default_factory=list)

    def aggregates(self) -> dict[str, Any]:
        rows = self.per_parameter
        n = len(rows)

        def mean(values: list[float]) -> float | None:
            return sum(values) / len(values) if values else None

        diversities = [r.diversity for r in rows if r.diversity is not None]
        labeled = [r.correct_label for r in rows if r.correct_label is not None]
        return {
            "records": n,
            "type_pct": mean([1.0 if r.type_correct else 0.0 for r in rows]),
            "unique_pct": mean([1.0 if r.unique else 0.0 for r in rows]),
            "both_pct": mean([1.0 if r.both else 0.0 for r in rows]),
            "mean_diversity": mean(diversities),
            "correct_pct": mean([1.0 if v else 0.0 for v in labeled]) if labeled else None,
        }


def build_report(records: list[GenerationRecord], embedder: EmbeddingProvider) -> IntrinsicReport:
    report = IntrinsicReport(embedding_provider=embedder.provider_id)
    for record in records:
        t = metric_type_correct(record)
        u = metric_unique(record)
        report.per_parameter.append(
            ParameterMetrics(
                api_name=record.parameter.api_name,
                param_name=record.parameter.param_name,
                source_pointer=record.parameter.source_pointer,
                type_correct=t,
                unique=u,
                both=t and u,
                diversity=metric_diversity(record.final, embedder),
            )
        )
    return report


def ingest_labels(report: IntrinsicReport, labels_path: str | Path) -> int:
    """Attach human correctness labels, keyed by (api_name, source_pointer).

    CSV rows are (api_name, source_pointer, correct) with correct in {0, 1}; a
    header row is recognized and skipped. Duplicate keys warn and keep the last
    value; rows that match no record warn. Returns the number of rows applied.
    """
    labels: dict[tuple[str, str], bool] = {}
    # utf-8-sig: spreadsheet "CSV UTF-8" exports start with a byte-order mark
    with open(labels_path, newline="", encoding="utf-8-sig") as fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if line_no == 1 and [c.strip().lower() for c in row[:3]] == [
                "api_name",
                "source_pointer",
                "correct",
            ]:
                continue
            if len(row) != 3:
                raise MalformedLabels(line_no, f"expected 3 columns, got {len(row)}")
            api_name, pointer, correct = (c.strip() for c in row)
            if correct not in ("0", "1"):
                raise MalformedLabels(line_no, f"correct must be 0 or 1, got {correct!r}")
            key = (api_name, pointer)
            if key in labels:
                log.warning("duplicate label for %s at line %d; keeping the later row", key, line_no)
            labels[key] = correct == "1"

    applied = 0
    matched: set[tuple[str, str]] = set()
    for row in report.per_parameter:
        key = (row.api_name, row.source_pointer)
        if key in labels:
            row.correct_label = labels[key]
            matched.add(key)
            applied += 1
    for key in labels.keys() - matched:
        log.warning("label matches no record: %s", key)
    return applied


def format_summary(report: IntrinsicReport) -> str:
    """One human-readable line in the shape of the headline result table."""
    agg = report.aggregates()

    def pct(v: float | None) -> str:
        return "n/a" if v is None else f"{100.0 * v:.1f}%"

    div = "n/a" if agg["mean_diversity"] is None else f"{agg['mean_diversity']:.2f}"
    line = (
        f"records {agg['records']}  type {pct(agg['type_pct'])}  "
        f"unique {pct(agg['unique_pct'])}  both {pct(agg['both_pct'])}  div {div}"
    )
    if agg["correct_pct"] is not None:
        line += f"  correct {pct(agg['correct_pct'])}"
    return line


def write_report_json(report: IntrinsicReport, path: str | Path) -> None:
    """The report's fields, then its aggregates."""
    write_json(path, {**encode_fields(report), "aggregates": report.aggregates()})


def _csv_cell(value: Any) -> Any:
    """None is an empty cell, a bool 0/1 and a float six decimals; text as is."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return f"{value:.6f}"
    return value


def write_report_csv(report: IntrinsicReport, path: str | Path) -> None:
    """Flat per-parameter table; aggregates stay on stdout."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f.name for f in fields(ParameterMetrics)])
    for r in report.per_parameter:
        writer.writerow([_csv_cell(getattr(r, f.name)) for f in fields(ParameterMetrics)])
    write_atomic(path, buf.getvalue())
