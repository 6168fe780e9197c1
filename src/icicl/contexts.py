"""Prompt context assembly: one greedy context, then sampled diverse contexts."""

from __future__ import annotations

import logging
import math
import random
from bisect import bisect_right, insort
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate, repeat

from .errors import InsufficientBank
from .model import ApiParameter, ExampleValue, ParameterBank
from .retrieval import Ranking, ScoredCandidate

log = logging.getLogger(__name__)

DEFAULT_SHOTS = 5
DEFAULT_CONTEXTS = 10
DEFAULT_SAMPLING_TEMPERATURE = 0.5


@dataclass(frozen=True)
class Shot:
    """One in-context demonstration: a parameter and the example to show for it."""

    parameter: ApiParameter
    example: ExampleValue


@dataclass(frozen=True)
class PromptContext:
    shots: tuple[Shot, ...]
    target: ApiParameter


@dataclass(frozen=True)
class ContextSet:
    contexts: tuple[PromptContext, ...]


def _ranking(candidates: Sequence[ScoredCandidate], shots: int, what: str) -> Ranking:
    """The candidates as a Ranking; raises when there are none, warns when too few."""
    if not candidates:
        raise InsufficientBank(f"no eligible bank entries for {what}")
    if len(candidates) < shots:
        log.warning("only %d eligible bank entries; %s shrinks to %d shots", len(candidates), what, len(candidates))
    return candidates if isinstance(candidates, Ranking) else Ranking.from_candidates(candidates)


def _bank_shot(bank: ParameterBank, entry_index: int) -> Shot:
    param = bank.entries[entry_index]
    return Shot(parameter=param, example=param.existing_examples[0])


def greedy_context(
    candidates: Sequence[ScoredCandidate],
    bank: ParameterBank,
    target: ApiParameter,
    shots: int = DEFAULT_SHOTS,
) -> PromptContext:
    """Deterministic context built from the highest-scoring entries.

    With fewer than `shots` eligible entries the context shrinks with a
    warning; with none at all this raises InsufficientBank. Past the scored
    entries the shots come from the zero-score tail, lowest entry index first.
    """
    ranking = _ranking(candidates, shots, "greedy context")
    return PromptContext(shots=tuple(_bank_shot(bank, c.entry_index) for c in ranking[:shots]), target=target)


def _draw_without_replacement(
    rng: random.Random,
    weights: list[float],
    cumulative: list[float],
    tail_weight: float,
    tail_len: int,
    count: int,
) -> list[int]:
    """Sequential categorical draws over the remaining ranks; returns ranks.

    Ranks below len(weights) weigh weights[rank], and cumulative[rank] is the
    running sum of weights up to it. The tail_len ranks after them weigh
    tail_weight each and form one block, where a draw lands on the block
    position ⌊offset / tail_weight⌋ among the tail ranks not drawn yet.
    Each draw costs one rng.random() and a bisect per rank already drawn.
    """
    scored = len(weights)
    scored_total = cumulative[-1] if cumulative else 0.0
    total = scored_total + tail_len * tail_weight
    drawn_scored: list[int] = []  # ascending
    drawn_tail: list[int] = []  # ascending positions within the tail
    picked: list[int] = []
    for _ in range(count):
        # rounding can leave the running total just below zero; x >= 0 keeps
        # the walk below from landing on a rank already drawn
        x = rng.random() * max(total, 0.0)
        # walk past the ranks already drawn, adding their weight to x
        for rank in drawn_scored:
            if bisect_right(cumulative, x) < rank:
                break
            x += weights[rank]
        rank = bisect_right(cumulative, x)
        left = tail_len - len(drawn_tail)
        if rank < scored:
            total -= weights[rank]
            insort(drawn_scored, rank)
        elif left == 0:
            # rounding carried u past the last weight: take the last rank left
            rank = scored - 1
            while rank in drawn_scored:
                rank -= 1
            total -= weights[rank]
            insort(drawn_scored, rank)
        else:
            offset = x - scored_total
            pos = min(int(offset / tail_weight), left - 1) if tail_weight > 0.0 else left - 1
            for taken in drawn_tail:
                if taken <= pos:
                    pos += 1
            total -= tail_weight
            insort(drawn_tail, pos)
            rank = scored + pos
        picked.append(rank)
    return picked


def _ranked_weights(
    scores: Sequence[float] | Mapping[int, float], order: list[int], peak: float, temperature: float
) -> list[float]:
    """exp((score - peak) / temperature) for each entry of `order`, one exp per run of equal scores.

    `order` is sorted by descending score, so equal scores sit side by side.
    A run's end is found by galloping: the stride doubles while the score
    holds, then the last stride is bisected. A run of one costs one look
    past it and a run of n about 2·log2(n), so a large bank's ranking, tens
    of thousands of entries over a few hundred distinct scores (a score
    depends only on which query terms an entry holds and on its token
    count), reads few of its scores.
    """
    weights: list[float] = []
    n = len(order)
    start = 0
    while start < n:
        score = scores[order[start]]
        weight = math.exp((score - peak) / temperature)
        end = start + 1
        if end < n and scores[order[end]] == score:
            stride = 2
            while start + stride < n and scores[order[start + stride]] == score:
                stride *= 2
            lo, hi = start + stride // 2 + 1, min(start + stride, n)
            # -score ascends along the order
            end = bisect_right(order, -score, lo, hi, key=lambda e: -scores[e])
            weights.extend(repeat(weight, end - start))
        else:
            weights.append(weight)
        start = end
    return weights


def sample_contexts(
    candidates: Sequence[ScoredCandidate],
    bank: ParameterBank,
    target: ApiParameter,
    greedy_example: ExampleValue,
    seed: int,
    contexts: int = DEFAULT_CONTEXTS,
    shots: int = DEFAULT_SHOTS,
    temperature: float = DEFAULT_SAMPLING_TEMPERATURE,
) -> ContextSet:
    """Draw `contexts` score-weighted shot sets, each ending in the greedy shot.

    Per context, `shots` distinct entries are drawn without replacement with
    probability softmax(score / temperature); temperature 0 degenerates to the
    greedy top-k (ties to the lower entry index). The final shot is always the
    target itself paired with its greedy example. Deterministic in
    (candidates, seed).

    `candidates` is a Ranking or a list of ScoredCandidates. Every entry of a
    Ranking's zero-score tail has the same weight exp(-peak / temperature), so
    the tail is one block of that weight times its size: a draw that lands in
    it picks uniformly among the tail entries not drawn yet, and no tail entry
    is looked at before it is drawn.

    The weights are computed once per run of equal scores in the ranking
    order. That is exact: scores that compare equal give equal weights
    through the same expression, so the weights, their running sums and
    every draw are what one exp per entry gives.
    """
    ranking = _ranking(candidates, shots, "context sampling")
    per_context = min(shots, len(ranking))
    self_shot = Shot(parameter=target, example=greedy_example)

    if temperature <= 0.0:
        shots_tuple = tuple(_bank_shot(bank, c.entry_index) for c in ranking[:shots]) + (self_shot,)
        return ContextSet(contexts=tuple(PromptContext(shots=shots_tuple, target=target) for _ in range(contexts)))

    scores = ranking.scores
    # the tail scores 0, so the peak is the top score, or 0 with nothing scored
    peak = scores[ranking.order[0]] if ranking.order else 0.0
    weights = _ranked_weights(scores, ranking.order, peak, temperature)
    cumulative = list(accumulate(weights))
    tail_weight = math.exp((0.0 - peak) / temperature)
    rng = random.Random(seed)
    built: list[PromptContext] = []
    for _ in range(contexts):
        drawn = _draw_without_replacement(rng, weights, cumulative, tail_weight, ranking.tail_len, per_context)
        bank_shots = tuple(_bank_shot(bank, ranking.entry(rank)) for rank in drawn)
        built.append(PromptContext(shots=bank_shots + (self_shot,), target=target))
    return ContextSet(contexts=tuple(built))
