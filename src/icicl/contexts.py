"""Prompt context assembly: one greedy context, then sampled diverse contexts."""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass

from .errors import InsufficientBank
from .model import ApiParameter, ExampleValue, ParameterBank
from .retrieval import ScoredCandidate, top_k

log = logging.getLogger(__name__)

DEFAULT_SHOTS = 5
DEFAULT_CONTEXTS = 10
DEFAULT_SAMPLING_TEMPERATURE = 0.5


@dataclass(frozen=True)
class Shot:
    """One in-context demonstration: a parameter and the example to show for it."""

    parameter: ApiParameter
    example: ExampleValue
    origin: str  # "bank" | "greedy_self"


@dataclass(frozen=True)
class PromptContext:
    shots: tuple[Shot, ...]
    target: ApiParameter


@dataclass(frozen=True)
class ContextSet:
    contexts: tuple[PromptContext, ...]


def _eligible(candidates: list[ScoredCandidate], shots: int, what: str) -> list[ScoredCandidate]:
    if not candidates:
        raise InsufficientBank(f"no eligible bank entries for {what}")
    if len(candidates) < shots:
        log.warning("only %d eligible bank entries; %s shrinks to %d shots", len(candidates), what, len(candidates))
    return candidates


def _bank_shot(bank: ParameterBank, candidate: ScoredCandidate) -> Shot:
    entry = bank.entries[candidate.entry_index]
    return Shot(parameter=entry.parameter, example=entry.canonical_example, origin="bank")


def greedy_context(
    candidates: list[ScoredCandidate],
    bank: ParameterBank,
    target: ApiParameter,
    shots: int = DEFAULT_SHOTS,
) -> PromptContext:
    """Deterministic context built from the highest-scoring entries.

    With fewer than `shots` eligible entries the context shrinks with a
    warning; with none at all this raises InsufficientBank.
    """
    pool = _eligible(candidates, shots, "greedy context")
    picked = top_k(pool, min(shots, len(pool)))
    return PromptContext(shots=tuple(_bank_shot(bank, c) for c in picked), target=target)


def _draw_without_replacement(
    rng: random.Random, weights: list[float], count: int
) -> list[int]:
    """Sequential categorical draws over the remaining items."""
    remaining = list(range(len(weights)))
    picked: list[int] = []
    for _ in range(count):
        total = 0.0
        for i in remaining:
            total += weights[i]
        u = rng.random() * total
        acc = 0.0
        chosen = remaining[-1]
        for i in remaining:
            acc += weights[i]
            if u < acc:
                chosen = i
                break
        picked.append(chosen)
        remaining.remove(chosen)
    return picked


def sample_contexts(
    candidates: list[ScoredCandidate],
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
    """
    pool = _eligible(candidates, shots, "context sampling")
    per_context = min(shots, len(pool))
    self_shot = Shot(parameter=target, example=greedy_example, origin="greedy_self")

    built: list[PromptContext] = []
    if temperature <= 0.0:
        picked = top_k(sorted(pool, key=lambda c: (-c.score, c.entry_index)), per_context)
        shots_tuple = tuple(_bank_shot(bank, c) for c in picked) + (self_shot,)
        built = [PromptContext(shots=shots_tuple, target=target) for _ in range(contexts)]
        return ContextSet(contexts=tuple(built))

    peak = max(c.score for c in pool)
    weights = [math.exp((c.score - peak) / temperature) for c in pool]
    rng = random.Random(seed)
    for _ in range(contexts):
        drawn = _draw_without_replacement(rng, weights, per_context)
        bank_shots = tuple(_bank_shot(bank, pool[i]) for i in drawn)
        built.append(PromptContext(shots=bank_shots + (self_shot,), target=target))
    return ContextSet(contexts=tuple(built))
