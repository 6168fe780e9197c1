"""Filtering model generations down to at most three final examples."""

from __future__ import annotations

import calendar
import json
import re
from dataclasses import dataclass, field
from typing import Any

from .embeddings import EmbeddingProvider, cosine
from .errors import GreedyMissing
from .model import ACCEPTED_KINDS, ExampleValue, SchemaType

PROVENANCE = ("greedy", "repeated", "embedding_selected", "copied")

MAX_EXAMPLES = 3

_FULL_DATE_RE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})$")
_DATE_TIME_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})[Tt](\d{2}):(\d{2}):(\d{2})(?:\.\d+)?([Zz]|[+-]\d{2}:\d{2})$"
)


def _valid_date(year: int, month: int, day: int) -> bool:
    if not 1 <= month <= 12:
        return False
    return 1 <= day <= calendar.monthrange(year, month)[1]


def is_rfc3339(text: str) -> bool:
    """RFC 3339 full-date or date-time, including leap seconds and offsets."""
    m = _FULL_DATE_RE.match(text)
    if m:
        return _valid_date(int(m.group(1)), int(m.group(2)), int(m.group(3)))
    m = _DATE_TIME_RE.match(text)
    if not m:
        return False
    year, month, day, hour, minute, second = (int(m.group(i)) for i in range(1, 7))
    if not _valid_date(year, month, day):
        return False
    if hour > 23 or minute > 59 or second > 60:
        return False
    offset = m.group(7)
    if offset not in ("Z", "z"):
        if int(offset[1:3]) > 23 or int(offset[4:6]) > 59:
            return False
    return True


def type_check(value: ExampleValue, schema_type: SchemaType) -> bool:
    """Does the value's textual form satisfy the declared type?

    Its parsed kind must be one that `ACCEPTED_KINDS` lists for the declared
    kind, so a bare JSON number, array, or object never passes as a string.
    A datetime must also be RFC 3339, an enum value a member (case-sensitive),
    and each item of an array must satisfy the item kind.
    """
    kind = schema_type.kind
    accepted = ACCEPTED_KINDS[kind]
    if accepted is not None and value.parsed_kind not in accepted:
        return False
    if kind == "datetime":
        return is_rfc3339(value.raw_text)
    if kind == "enum":
        return value.raw_text in schema_type.enum_values
    if kind == "array" and schema_type.item_kind.kind != "unknown":
        items: list[Any] = json.loads(value.raw_text)
        for item in items:
            try:
                item_value = ExampleValue.from_python(item)
            except ValueError:
                return False
            if not type_check(item_value, schema_type.item_kind):
                return False
    return True


@dataclass(frozen=True)
class CandidatePool:
    """Parsed generations for one parameter, before selection."""

    greedy: ExampleValue | None
    diverse: tuple[ExampleValue, ...]
    target_type: SchemaType


@dataclass(frozen=True)
class ExampleSet:
    """The final one-to-three examples with where each one came from.

    `greedy_included` is derived from `provenance`. It is declared between
    the two because records write it there.
    """

    examples: tuple[ExampleValue, ...]
    greedy_included: bool = field(init=False)
    provenance: tuple[str, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.examples) <= MAX_EXAMPLES:
            raise ValueError("an example set holds between 1 and 3 examples")
        if len(self.provenance) != len(self.examples):
            raise ValueError("provenance must parallel examples")
        for p in self.provenance:
            if p not in PROVENANCE:
                raise ValueError(f"bad provenance: {p!r}")
        object.__setattr__(self, "greedy_included", self.provenance[0] == "greedy")


def _fold(value: ExampleValue) -> str:
    return value.raw_text.casefold()


def select_examples(pool: CandidatePool, embedder: EmbeddingProvider) -> ExampleSet:
    """Reduce a pool to at most three examples.

    Type-incorrect diverse candidates are dropped first. Values the model
    produced more than once (counting the greedy) are kept by descending
    multiplicity; any remaining slots are filled by cosine similarity to the
    greedy example. Value identity is case-insensitive, keeping the first-seen
    casing. Raises GreedyMissing when there is no type-correct greedy example.
    """
    if pool.greedy is None:
        raise GreedyMissing("no greedy example was generated")
    if not type_check(pool.greedy, pool.target_type):
        raise GreedyMissing(f"greedy example {pool.greedy.raw_text!r} fails the declared type")

    survivors = [d for d in pool.diverse if type_check(d, pool.target_type)]

    counts: dict[str, int] = {}
    representative: dict[str, ExampleValue] = {}  # in first-seen order
    for value in (pool.greedy, *survivors):
        key = _fold(value)
        counts[key] = counts.get(key, 0) + 1
        representative.setdefault(key, value)

    greedy_key = _fold(pool.greedy)
    # sorts are stable, so ties keep first-seen order
    repeated = sorted((k for k in representative if counts[k] >= 2 and k != greedy_key), key=lambda k: -counts[k])
    chosen = [greedy_key, *repeated][:MAX_EXAMPLES]

    remaining = [k for k in representative if k not in chosen]
    if len(chosen) < MAX_EXAMPLES and remaining:
        vectors = embedder.embed([representative[k].raw_text for k in (greedy_key, *remaining)])
        by_similarity = sorted(zip(remaining, vectors[1:]), key=lambda kv: -cosine(kv[1], vectors[0]))
        chosen += [key for key, _vec in by_similarity[: MAX_EXAMPLES - len(chosen)]]

    provenance = ["greedy"] + [
        "repeated" if counts[k] >= 2 else "embedding_selected" for k in chosen[1:]
    ]
    return ExampleSet(examples=tuple(representative[k] for k in chosen), provenance=tuple(provenance))
