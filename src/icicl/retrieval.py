"""Lexical retrieval over the bank: shared tokenizer and Okapi BM25."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .errors import EmptyBank
from .model import ApiParameter, ParameterBank

K1 = 1.2
B = 0.75

DESCRIPTION_PREFIX_CHARS = 50

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)
# acronym runs, capitalized words, lowercase runs, digit runs, anything else
_CAMEL_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]+(?![a-z])|[A-Z][a-z]*|[a-z]+|\d+|[^\dA-Za-z]+")


def tokenize(text: str) -> list[str]:
    """Lowercased tokens split on non-alphanumerics and camelCase humps.

    No stemming, no stopword removal: "getUserByUsername" yields
    [get, user, by, username] and "v2Currency" yields [v, 2, currency].
    """
    tokens: list[str] = []
    for chunk in _WORD_RE.findall(text):
        tokens.extend(part.lower() for part in _CAMEL_RE.findall(chunk))
    return [t for t in tokens if t]


@dataclass(frozen=True)
class RetrievalQuery:
    text: str
    tokens: tuple[str, ...]


def retrieval_text(param: ApiParameter) -> str:
    """First 50 chars of the description, the name, the operation id.

    Queries and bank entries share this text shape.
    """
    parts = [
        param.description[:DESCRIPTION_PREFIX_CHARS],
        param.param_name,
        param.operation_id,
    ]
    return " ".join(p for p in parts if p)


def build_query(param: ApiParameter) -> RetrievalQuery:
    text = retrieval_text(param)
    return RetrievalQuery(text=text, tokens=tuple(tokenize(text)))


@dataclass
class RetrievalIndex:
    """Inverted index with the corpus statistics BM25 needs."""

    doc_count: int
    avg_doc_len: float
    doc_lengths: list[int]
    term_df: dict[str, int]
    postings: dict[str, list[tuple[int, int]]]  # term -> [(entry_index, tf)]


def build_index(bank: ParameterBank) -> RetrievalIndex:
    if not bank.entries:
        raise EmptyBank("cannot index an empty bank")

    doc_lengths: list[int] = []
    term_df: dict[str, int] = {}
    postings: dict[str, list[tuple[int, int]]] = {}

    for idx, entry in enumerate(bank.entries):
        tokens = tokenize(retrieval_text(entry.parameter))
        doc_lengths.append(len(tokens))
        counts: dict[str, int] = {}
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
        for term, tf in counts.items():
            term_df[term] = term_df.get(term, 0) + 1
            postings.setdefault(term, []).append((idx, tf))

    n = len(bank.entries)
    return RetrievalIndex(
        doc_count=n,
        avg_doc_len=sum(doc_lengths) / n,
        doc_lengths=doc_lengths,
        term_df=term_df,
        postings=postings,
    )


def idf(index: RetrievalIndex, term: str) -> float:
    """ln(1 + (N - df + 0.5) / (df + 0.5)); never negative."""
    df = index.term_df.get(term, 0)
    return math.log(1.0 + (index.doc_count - df + 0.5) / (df + 0.5))


@dataclass(frozen=True)
class ScoredCandidate:
    entry_index: int
    score: float


def score_all(index: RetrievalIndex, query: RetrievalQuery) -> list[ScoredCandidate]:
    """BM25 score for every bank entry, sorted by (score desc, entry_index asc).

    Zero-score entries are included, so the result always covers the whole bank.
    """
    scores = [0.0] * index.doc_count
    avg = index.avg_doc_len
    for term in query.tokens:
        plist = index.postings.get(term)
        if not plist:
            continue
        w = idf(index, term)
        for doc_idx, tf in plist:
            norm = K1 * (1.0 - B + B * index.doc_lengths[doc_idx] / avg)
            scores[doc_idx] += w * tf * (K1 + 1.0) / (tf + norm)
    ranked = [ScoredCandidate(entry_index=i, score=s) for i, s in enumerate(scores)]
    ranked.sort(key=lambda c: (-c.score, c.entry_index))
    return ranked


def top_k(candidates: list[ScoredCandidate], k: int) -> list[ScoredCandidate]:
    return candidates[: max(0, k)]


def exclude_self(
    candidates: list[ScoredCandidate], bank: ParameterBank, target: ApiParameter
) -> list[ScoredCandidate]:
    """Drop bank entries that are the target itself, by (api_name, source_pointer)."""
    return [
        c
        for c in candidates
        if (
            bank.entries[c.entry_index].parameter.api_name,
            bank.entries[c.entry_index].parameter.source_pointer,
        )
        != (target.api_name, target.source_pointer)
    ]
