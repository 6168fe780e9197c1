"""Lexical retrieval over the bank: shared tokenizer and Okapi BM25."""

from __future__ import annotations

import math
import re
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from .model import ApiParameter, ParameterBank

K1 = 1.2
B = 0.75

DESCRIPTION_PREFIX_CHARS = 50

# acronym runs, capitalized words, lowercase runs, digit runs, runs of other
# letters; underscores and non-word characters only separate tokens. Saved
# indexes hold these tokens: a change here, or to retrieval_text, must bump
# bank.INDEX_VERSION.
_TOKEN_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]+(?![a-z])|[A-Z][a-z]*|[a-z]+|\d+|[^\W\dA-Za-z_]+")


def tokenize(text: str) -> list[str]:
    """Lowercased tokens split on non-alphanumerics and camelCase humps.

    No stemming, no stopword removal: "getUserByUsername" yields
    [get, user, by, username] and "v2Currency" yields [v, 2, currency].
    """
    return list(map(str.lower, _TOKEN_RE.findall(text)))


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


def build_query(param: ApiParameter) -> tuple[str, ...]:
    """The query tokens of a target parameter, duplicates kept."""
    return tuple(tokenize(retrieval_text(param)))


# a term's (entries holding it once, [(entry, tf)] for entries repeating it)
Postings = tuple[list[int], list[tuple[int, int]]]


@dataclass
class RetrievalIndex:
    """Inverted index with the corpus statistics BM25 needs.

    The length norms derive from the token counts, so an index read back from
    its counts and postings ranks to the bit as the one built. `postings` is
    read-only; `load_bank` gives one that reads each term from the index file
    on first use.
    """

    doc_lengths: list[int]  # tokens per entry
    postings: Mapping[str, Postings]
    length_norms: list[float] = field(init=False)  # K1 * (1 - B + B * doc_len / avg_doc_len), per entry

    def __post_init__(self) -> None:
        # with no token in any entry no posting reads a norm, so any average serves
        avg = sum(self.doc_lengths) / max(len(self.doc_lengths), 1) or 1.0
        # one norm per distinct token count, the same float the formula gives per entry
        norms = {n: K1 * (1.0 - B + B * n / avg) for n in set(self.doc_lengths)}
        self.length_norms = list(map(norms.__getitem__, self.doc_lengths))

    @property
    def doc_count(self) -> int:
        return len(self.doc_lengths)


def index_arrays(params: Iterable[ApiParameter]) -> tuple[array, dict[str, tuple[array, array]]]:
    """The token count of each entry, and each term's postings: the entries
    holding it once, and the entry then the tf of each entry repeating it.
    All are `array("I")`; `build_index` and the bank's index file are both
    built from them.
    """
    doc_lengths = array("I")
    postings: dict[str, tuple[array, array]] = {}
    for idx, param in enumerate(params):
        tokens = tokenize(retrieval_text(param))
        doc_lengths.append(len(tokens))
        distinct = set(tokens)
        repeats = len(distinct) < len(tokens)  # most entries repeat no term
        for term in distinct if repeats else tokens:
            plist = postings.get(term)
            if plist is None:
                plist = postings[term] = (array("I"), array("I"))
            tf = tokens.count(term) if repeats else 1
            if tf == 1:
                plist[0].append(idx)
            else:
                plist[1].append(idx)
                plist[1].append(tf)
    return doc_lengths, postings


def postings_lists(once: array, pairs: array) -> Postings:
    """The `Postings` of a term's `index_arrays` postings."""
    return once.tolist(), list(zip(pairs[::2].tolist(), pairs[1::2].tolist()))


def build_index(bank: ParameterBank) -> RetrievalIndex:
    """The index `load_bank` read beside the bank, or else one built from every entry.

    An empty bank gives an empty index, which ranks nothing.
    """
    # `bench/fixture_words.py` hands in a namespace with no `index`
    loaded = getattr(bank, "index", None)
    if loaded is not None:
        return loaded
    params = bank.entries
    if params and not isinstance(params[0], ApiParameter):
        # `bench/fixture_words.py` still hands in wrappers with a `.parameter`
        params = [entry.parameter for entry in params]
    doc_lengths, postings = index_arrays(params)
    return RetrievalIndex(doc_lengths.tolist(), {term: postings_lists(*plist) for term, plist in postings.items()})


def idf(index: RetrievalIndex, term: str) -> float:
    """ln(1 + (N - df + 0.5) / (df + 0.5)); never negative."""
    plist = index.postings.get(term)
    df = len(plist[0]) + len(plist[1]) if plist else 0
    return math.log(1.0 + (index.doc_count - df + 0.5) / (df + 0.5))


@dataclass(frozen=True)
class ScoredCandidate:
    entry_index: int
    score: float


class Ranking(Sequence[ScoredCandidate]):
    """Candidates in (score desc, entry_index asc) order, built on demand.

    The ranking is `order`, the entries that carry a score, followed by the
    zero-score tail: every index in range(tail_stop) that is not in the sorted
    list `holes`, ascending. Holes are the ranked entries plus the excluded
    tail entries, so the tail is never materialized; its r-th entry is found
    by bisecting the holes. `scores` maps an entry index to its score.
    """

    def __init__(
        self,
        scores: Sequence[float] | Mapping[int, float],
        order: list[int],
        holes: list[int],
        tail_stop: int,
    ):
        self.scores = scores
        self.order = order
        self.holes = holes
        self.tail_stop = tail_stop

    @classmethod
    def from_candidates(cls, candidates: Sequence[ScoredCandidate]) -> "Ranking":
        """A tailless ranking of explicit candidates, sorted into ranking order."""
        ranked = sorted(candidates, key=lambda c: (-c.score, c.entry_index))
        return cls({c.entry_index: c.score for c in ranked}, [c.entry_index for c in ranked], [], 0)

    @property
    def tail_len(self) -> int:
        return self.tail_stop - len(self.holes)

    def __len__(self) -> int:
        return len(self.order) + self.tail_len

    def entry(self, rank: int) -> int:
        """Entry index at `rank`, with 0 <= rank < len(self)."""
        ranked = len(self.order)
        if rank < ranked:
            return self.order[rank]
        r = rank - ranked
        holes = self.holes
        # holes[j] - j counts the tail entries below holes[j]
        return r + bisect_right(range(len(holes)), r, key=lambda j: holes[j] - j)

    def __getitem__(self, i: int | slice) -> ScoredCandidate | list[ScoredCandidate]:  # type: ignore[override]
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        entry = self.entry(i)
        return ScoredCandidate(entry, self.scores[entry] if i < len(self.order) else 0.0)


def score_all(index: RetrievalIndex, query: Sequence[str]) -> Ranking:
    """BM25 ranking of every bank entry by (score desc, entry_index asc).

    Only entries that share a query term are scored and sorted; the
    zero-score rest of the bank is the ranking's implicit tail, so `len` of
    the result is always the bank size.
    """
    scores = [0.0] * index.doc_count
    norms = index.length_norms
    touched: set[int] = set()
    for term in query:
        plist = index.postings.get(term)
        if not plist:
            continue
        w = idf(index, term)
        once, repeated = plist
        touched.update(once)
        gain = w * (K1 + 1.0)  # w * tf * (K1 + 1.0) at tf = 1, to the bit
        for doc_idx in once:
            scores[doc_idx] += gain / (1.0 + norms[doc_idx])
        for doc_idx, tf in repeated:
            touched.add(doc_idx)
            scores[doc_idx] += w * tf * (K1 + 1.0) / (tf + norms[doc_idx])
    holes = sorted(touched)
    # stable over ascending indices, so equal scores stay in entry order
    order = sorted(holes, key=scores.__getitem__, reverse=True)
    return Ranking(scores, order, holes, index.doc_count)


def exclude_self(candidates: Ranking, bank: ParameterBank, target: ApiParameter) -> Ranking:
    """Drop bank entries that are the target itself, by (api_name, source_pointer).

    `candidates` is the ranking score_all returned for `bank`'s index. The
    entries come from `bank.entries_with`: a ranked one leaves the order, a
    tail one (its description changed since mining, so it shares no query
    term) becomes a hole in the tail. With no such entry `candidates` itself
    is returned, uncopied.
    """
    own = bank.entries_with(target.api_name, target.source_pointer)
    if not own:
        return candidates
    order, holes = list(candidates.order), list(candidates.holes)
    for entry in own:
        if entry in order:
            order.remove(entry)
            continue
        pos = bisect_left(holes, entry)
        if pos == len(holes) or holes[pos] != entry:
            holes.insert(pos, entry)
    return Ranking(candidates.scores, order, holes, candidates.tail_stop)
