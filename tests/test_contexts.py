"""Greedy and sampled context assembly: determinism, shrinkage, distribution."""

import logging
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icicl.contexts import _ranked_weights, greedy_context, sample_contexts
from icicl.errors import InsufficientBank
from icicl.model import ExampleValue
from icicl.retrieval import Ranking, ScoredCandidate, build_index, build_query, exclude_self, score_all

from scipy.stats import chisquare

from support import make_bank, make_param, sample_oracle_draw, sample_reference_entries

GREEDY_EXAMPLE = ExampleValue.from_raw("USD")


def scored(*scores: float) -> list[ScoredCandidate]:
    ranked = [ScoredCandidate(entry_index=i, score=s) for i, s in enumerate(scores)]
    ranked.sort(key=lambda c: (-c.score, c.entry_index))
    return ranked


def bank_of(n: int):
    return make_bank(*[("api", f"p{i}", f"word{i}", f"op{i}", f"v{i}") for i in range(n)])


def test_greedy_takes_top_five_in_order(running_bank, currency_param):
    index = build_index(running_bank)
    candidates = exclude_self(score_all(index, build_query(currency_param)), running_bank, currency_param)
    context = greedy_context(candidates, running_bank, currency_param)

    apis = [s.parameter.api_name for s in context.shots]
    assert apis == ["beezup", "world-bank", "open-exchange", "currencylayer", "exchange-rates"]
    assert context.target is currency_param
    assert all(s.parameter in running_bank.entries for s in context.shots)
    assert all(s.example == s.parameter.existing_examples[0] for s in context.shots)
    assert context.shots[0].example.raw_text == "EUR"


def test_greedy_shrinks_with_warning(caplog):
    bank = bank_of(3)
    target = make_param(param_name="q")
    with caplog.at_level(logging.WARNING, logger="icicl.contexts"):
        context = greedy_context(scored(3.0, 2.0, 1.0), bank, target, shots=5)
    assert len(context.shots) == 3
    assert any("shrinks" in r.message for r in caplog.records)


def test_empty_candidates_raise():
    bank = bank_of(1)
    target = make_param(param_name="q")
    with pytest.raises(InsufficientBank):
        greedy_context([], bank, target)
    with pytest.raises(InsufficientBank):
        sample_contexts([], bank, target, GREEDY_EXAMPLE, seed=1)


def test_sampled_contexts_end_with_self_shot():
    bank = bank_of(8)
    target = make_param(param_name="q")
    cs = sample_contexts(scored(*range(8)), bank, target, GREEDY_EXAMPLE, seed=42)
    assert len(cs.contexts) == 10
    for ctx in cs.contexts:
        assert len(ctx.shots) == 6  # five drawn + the greedy self shot
        last = ctx.shots[-1]
        assert last.parameter is target
        assert last.example == GREEDY_EXAMPLE
        assert all(s.parameter in bank.entries for s in ctx.shots[:-1])
        assert all(s.example == s.parameter.existing_examples[0] for s in ctx.shots[:-1])


def test_same_seed_reproduces_exactly():
    bank = bank_of(10)
    target = make_param(param_name="q")
    pool = scored(*[float(i % 4) for i in range(10)])
    a = sample_contexts(pool, bank, target, GREEDY_EXAMPLE, seed=99)
    b = sample_contexts(pool, bank, target, GREEDY_EXAMPLE, seed=99)
    assert a == b
    c = sample_contexts(pool, bank, target, GREEDY_EXAMPLE, seed=100)
    assert c.contexts != a.contexts  # overwhelmingly likely with ten near-uniform draws


def test_zero_temperature_degenerates_to_top_k():
    bank = bank_of(6)
    target = make_param(param_name="q")
    pool = scored(1.0, 5.0, 5.0, 2.0, 0.5, 4.0)
    cs = sample_contexts(pool, bank, target, GREEDY_EXAMPLE, seed=7, temperature=0.0)
    for ctx in cs.contexts:
        drawn = [s.parameter.param_name for s in ctx.shots[:-1]]
        assert drawn == ["p1", "p2", "p5", "p3", "p0"]  # score desc, ties by entry index


def test_shrunken_pool_warns_and_draws_all(caplog):
    bank = bank_of(2)
    target = make_param(param_name="q")
    with caplog.at_level(logging.WARNING, logger="icicl.contexts"):
        cs = sample_contexts(scored(2.0, 1.0), bank, target, GREEDY_EXAMPLE, seed=3)
    assert all(len(ctx.shots) == 3 for ctx in cs.contexts)  # 2 drawn + self
    assert any("shrinks" in r.message for r in caplog.records)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    scores=st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=1, max_size=12),
)
def test_draws_are_distinct_within_a_context(seed, scores):
    bank = bank_of(len(scores))
    target = make_param(param_name="q")
    cs = sample_contexts(scored(*scores), bank, target, GREEDY_EXAMPLE, seed=seed, contexts=3)
    for ctx in cs.contexts:
        names = [s.parameter.param_name for s in ctx.shots[:-1]]
        assert len(names) == len(set(names))
        assert len(names) == min(5, len(scores))


def test_distribution_matches_independent_sampler():
    """Monte-Carlo cross-check against the oracle sampler over a skewed pool."""
    scores = [4.0, 3.0, 2.5, 1.0, 0.5, 0.2]
    bank = bank_of(len(scores))
    target = make_param(param_name="q")
    pool = scored(*scores)
    trials = 3000
    draws_per = 3

    mine = [0] * len(scores)
    for seed in range(trials):
        cs = sample_contexts(
            pool, bank, target, GREEDY_EXAMPLE, seed=seed, contexts=1, shots=draws_per
        )
        for shot in cs.contexts[0].shots[:-1]:
            mine[int(shot.parameter.param_name[1:])] += 1

    rng = random.Random(12345)
    theirs = [0] * len(scores)
    for _ in range(trials):
        for idx in sample_oracle_draw(scores, 0.5, rng, draws_per):
            theirs[idx] += 1

    for got, want in zip(mine, theirs):
        assert abs(got - want) / trials < 0.05


def test_ordering_bias_toward_high_scores():
    scores = [10.0, 0.1, 0.1, 0.1, 0.1, 0.1]
    bank = bank_of(len(scores))
    target = make_param(param_name="q")
    lead = 0
    for seed in range(200):
        cs = sample_contexts(scored(*scores), bank, target, GREEDY_EXAMPLE, seed=seed, contexts=1)
        if cs.contexts[0].shots[0].parameter.param_name == "p0":
            lead += 1
    assert lead >= 195  # temperature 0.5 makes the high entry all but certain to lead


def sparse_bank(touched: dict[int, str], size: int, twin: int):
    """`size` entries whose words are unique to each, except the `touched` ones.

    Entry `twin` has the target's identity (TWIN_API, its pointer).
    """
    rows = []
    for i in range(size):
        name = touched.get(i, f"filler{i}")
        rows.append(("api", name, "", "", f"v{i}"))
    bank = make_bank(*rows)
    target = make_param(
        param_name="currency",
        description="",
        operation_id="",
        api_name="api",
        source_pointer=bank.entries[twin].source_pointer,
    )
    return bank, target


def test_greedy_fills_from_the_tail_in_entry_order():
    bank, target = sparse_bank({3: "currencyCode", 6: "currency"}, size=8, twin=1)
    candidates = exclude_self(score_all(build_index(bank), build_query(target)), bank, target)
    context = greedy_context(candidates, bank, target, shots=5)
    assert [s.parameter.param_name for s in context.shots] == [
        "currency", "currencyCode", "filler0", "filler2", "filler4"
    ]


def test_tail_block_matches_oracle_over_materialized_scores():
    """3 scored entries and 200 tail entries; the tail holds about half the mass."""
    touched = {40: "currency", 90: "currencyCode", 150: "currencyCodeIso"}
    bank, target = sparse_bank(touched, size=204, twin=120)
    temperature = 1.05
    candidates = exclude_self(score_all(build_index(bank), build_query(target)), bank, target)
    assert len(candidates) == 203

    materialized = sorted(candidates, key=lambda c: c.entry_index)
    entries = [c.entry_index for c in materialized]
    scores = [c.score for c in materialized]
    peak = max(scores)
    weights = [math.exp((s - peak) / temperature) for s in scores]
    tail_mass = sum(w for w, s in zip(weights, scores) if s == 0.0) / sum(weights)
    assert 0.35 < tail_mass < 0.65, tail_mass

    trials, shots = 3000, 5
    cs = sample_contexts(
        candidates, bank, target, GREEDY_EXAMPLE, seed=5, contexts=trials, shots=shots,
        temperature=temperature,
    )
    name_to_entry = {p.param_name: i for i, p in enumerate(bank.entries)}
    mine = dict.fromkeys(entries, 0)
    for ctx in cs.contexts:
        drawn = [name_to_entry[s.parameter.param_name] for s in ctx.shots[:-1]]
        assert len(drawn) == len(set(drawn)) == shots
        assert 120 not in drawn
        for entry in drawn:
            mine[entry] += 1

    rng = random.Random(12345)
    theirs = dict.fromkeys(entries, 0)
    for _ in range(trials):
        for pos in sample_oracle_draw(scores, temperature, rng, shots):
            theirs[entries[pos]] += 1

    for entry in touched:
        assert abs(mine[entry] - theirs[entry]) / trials < 0.05, entry
    tail = [e for e in entries if e not in touched]
    tail_mine = sum(mine[e] for e in tail)
    assert abs(tail_mine - sum(theirs[e] for e in tail)) / trials < 0.1
    # each tail entry is equally likely; p > 0.001 at this fixed seed
    assert chisquare([mine[e] for e in tail]).pvalue > 0.001


def _from_scores(scores):
    return bank_of(len(scores)), make_param(param_name="q"), Ranking.from_candidates(scored(*scores))


# scores from a pool of one to three values: long runs of equal scores
TIED = st.lists(st.floats(0.0, 30.0), min_size=1, max_size=3).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40)
).map(_from_scores)
DISTINCT = st.lists(st.floats(0.0, 30.0), min_size=1, max_size=40, unique=True).map(_from_scores)


@st.composite
def sparse_rankings(draw):
    """score_all over a sparse bank: few distinct BM25 scores and a zero-score tail."""
    size = draw(st.integers(2, 60))
    words = st.sampled_from(["currency", "currencyCode", "currencyCurrency", "code", "currencyCodeIso"])
    touched = draw(st.dictionaries(st.integers(0, size - 1), words, max_size=size))
    bank, target = sparse_bank(touched, size, twin=draw(st.integers(0, size - 1)))
    return bank, target, exclude_self(score_all(build_index(bank), build_query(target)), bank, target)


@settings(max_examples=300, deadline=None)
@given(
    case=st.one_of(TIED, DISTINCT, sparse_rankings()),
    temperature=st.sampled_from([1e-3, 0.5, 50.0]),
    seed=st.integers(0, 2**32),
    shots=st.integers(1, 6),
    contexts=st.integers(1, 4),
)
def test_sampling_draws_what_one_exp_per_entry_draws(case, temperature, seed, shots, contexts):
    bank, target, ranking = case
    scores, order = ranking.scores, ranking.order
    peak = scores[order[0]] if order else 0.0
    assert _ranked_weights(scores, order, peak, temperature) == [
        math.exp((scores[e] - peak) / temperature) for e in order
    ]

    cs = sample_contexts(
        ranking, bank, target, GREEDY_EXAMPLE, seed=seed, contexts=contexts, shots=shots, temperature=temperature
    )
    entry_of = {id(param): i for i, param in enumerate(bank.entries)}
    drawn = [[entry_of[id(shot.parameter)] for shot in ctx.shots[:-1]] for ctx in cs.contexts]
    assert drawn == sample_reference_entries(ranking, seed, contexts, shots, temperature)
