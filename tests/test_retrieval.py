"""Tokenizer goldens and BM25 scoring against an independent oracle."""

import bisect
import dataclasses
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from icicl.retrieval import (
    Ranking,
    build_index,
    build_query,
    exclude_self,
    idf,
    retrieval_text,
    score_all,
    tokenize,
)

from support import bm25_oracle, make_bank, make_param, ranking_reference, tokenize_reference


def test_tokenizer_goldens():
    assert tokenize("getUserByUsername") == ["get", "user", "by", "username"]
    assert tokenize("v2Currency") == ["v", "2", "currency"]
    assert tokenize("ISO 4217") == ["iso", "4217"]
    assert tokenize("currencyCode") == ["currency", "code"]
    assert tokenize("snake_case_name") == ["snake", "case", "name"]
    assert tokenize("HTTPServer2x") == ["http", "server", "2", "x"]
    assert tokenize("") == []
    assert tokenize("  --  ") == []


@settings(max_examples=300, deadline=None)
@given(
    text=st.one_of(
        st.text(),
        st.text(alphabet="aBcDeXYZ019_ -./éÉßİﬁ²٣中"),
    )
)
def test_tokenize_matches_two_pass_reference(text):
    assert tokenize(text) == tokenize_reference(text)


def test_query_text_shape():
    param = make_param(
        param_name="currency",
        description="x" * 80,
        operation_id="opId",
    )
    assert retrieval_text(param) == "x" * 50 + " currency opId"
    assert build_query(param) == tuple(tokenize(retrieval_text(param)))

    no_desc = make_param(param_name="n", description="", operation_id="op")
    assert retrieval_text(no_desc) == "n op"  # empty parts leave no doubled spaces


def test_query_tokens_keep_duplicates():
    param = make_param(
        param_name="currency",
        description="Search by ISO 4217 currency code",
        operation_id="v2Currency",
    )
    tokens = list(build_query(param))
    assert tokens.count("currency") == 3  # description + name + operation id


def test_hand_computed_three_doc_scores():
    bank = make_bank(
        ("a", "currencyCode", "", "", "EUR"),
        ("b", "userName", "", "", "jo"),
        ("c", "currencySymbol", "", "", "$"),
    )
    index = build_index(bank)
    target = make_param(param_name="currency", description="", operation_id="")
    ranked = score_all(index, build_query(target))

    # every doc has 2 tokens, so the length norm cancels: score = idf("currency")
    expected = math.log(1.6)
    assert expected == 0.47000362924573563
    assert [c.entry_index for c in ranked] == [0, 2, 1]
    assert abs(ranked[0].score - expected) < 1e-12
    assert abs(ranked[1].score - expected) < 1e-12
    assert ranked[2].score == 0.0


def test_idf_never_negative():
    bank = make_bank(*[("a", f"p{i}", "common token", f"op{i}", "v") for i in range(8)])
    index = build_index(bank)
    # "common" appears in every doc; plain Robertson idf would go negative
    assert idf(index, "common") > 0.0
    assert idf(index, "absent") > idf(index, "common")


def test_ties_break_by_entry_index():
    bank = make_bank(
        ("a", "same", "", "", "1"),
        ("b", "same", "", "", "2"),
        ("c", "same", "", "", "3"),
    )
    ranked = score_all(build_index(bank), build_query(make_param(param_name="same")))
    assert [c.entry_index for c in ranked] == [0, 1, 2]


def test_zero_matches_still_cover_bank():
    bank = make_bank(("a", "alpha", "", "", "1"), ("b", "beta", "", "", "2"))
    ranked = score_all(build_index(bank), build_query(make_param(param_name="zzz")))
    assert len(ranked) == 2
    assert all(c.score == 0.0 for c in ranked)


def test_bank_whose_entries_hold_no_token_ranks_them_all_in_the_tail():
    bank = make_bank(("a", "_", "", "", "1"), ("b", "__", "", "", "2"))
    index = build_index(bank)
    assert index.doc_lengths == [0, 0]
    ranked = score_all(index, build_query(make_param(param_name="code")))
    assert [(c.entry_index, c.score) for c in ranked] == [(0, 0.0), (1, 0.0)]


def test_exclude_self_uses_api_and_pointer():
    bank = make_bank(
        ("mine", "currency", "", "", "USD"),
        ("other", "currency", "", "", "EUR"),
    )
    target = make_param(
        param_name="currency",
        api_name="mine",
        source_pointer=bank.entries[0].source_pointer,
    )
    ranked = exclude_self(score_all(build_index(bank), build_query(target)), bank, target)
    assert [c.entry_index for c in ranked] == [1]


@settings(max_examples=200, deadline=None)
@given(
    size=st.integers(0, 12),
    ranked=st.lists(st.integers(0, 11), unique=True),
    excluded=st.lists(st.integers(0, 11), unique=True),
)
def test_iterating_a_ranking_walks_its_order_then_its_tail(size, ranked, excluded):
    order = [e for e in ranked if e < size]
    holes = sorted({*order, *(e for e in excluded if e < size)})
    ranking = Ranking({e: 1.0 + e for e in order}, order, holes, size)
    walked = list(ranking)
    assert walked == [ranking[i] for i in range(len(ranking))]
    assert [c.entry_index for c in walked] == order + [e for e in range(size) if e not in holes]
    assert [c.score for c in walked] == [1.0 + e for e in order] + [0.0] * ranking.tail_len


def _random_bank_and_query(rng: random.Random, vocab: list[str]):
    n_docs = rng.randint(1, 12)
    rows = []
    for i in range(n_docs):
        words = " ".join(rng.choices(vocab, k=rng.randint(1, 8)))
        rows.append(("api", f"p{i}", words, "", "v"))
    bank = make_bank(*rows)
    query = make_param(
        param_name="q",
        description=" ".join(rng.choices(vocab, k=rng.randint(1, 6))),
        operation_id="",
    )
    return bank, query


def test_oracle_agreement_on_random_corpora():
    vocab = ["alpha", "beta", "gamma", "delta", "code", "currency", "user", "id"]
    rng = random.Random(7)
    for _ in range(50):
        bank, target = _random_bank_and_query(rng, vocab)
        index = build_index(bank)
        ranked = score_all(index, build_query(target))

        docs = [tokenize(retrieval_text(p)) for p in bank.entries]
        expected = bm25_oracle(docs, list(build_query(target)))
        got = {c.entry_index: c.score for c in ranked}
        for i, want in enumerate(expected):
            assert abs(got[i] - want) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    docs=st.lists(
        st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=6),
        min_size=2,
        max_size=8,
    ),
    term=st.sampled_from(["a", "b", "c", "d"]),
)
def test_single_term_scores_rank_by_tf_within_equal_lengths(docs, term):
    """For a one-term query, more occurrences never score lower (same doc length)."""
    rows = [("api", f"p{i}", " ".join(words), "", "v") for i, words in enumerate(docs)]
    bank = make_bank(*rows)
    index = build_index(bank)
    target = make_param(param_name=term, description="", operation_id="")
    scores = {c.entry_index: c.score for c in score_all(index, build_query(target))}
    for i, a in enumerate(docs):
        for j, b in enumerate(docs):
            if len(a) == len(b) and a.count(term) > b.count(term):
                assert scores[i] > scores[j]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_scores_invariant_under_entry_permutation(seed):
    rng = random.Random(seed)
    vocab = ["red", "green", "blue", "code"]
    bank, target = _random_bank_and_query(rng, vocab)

    order = list(range(len(bank.entries)))
    rng.shuffle(order)
    shuffled = make_bank(
        *[
            (
                "api",
                bank.entries[i].param_name,
                bank.entries[i].description,
                bank.entries[i].operation_id,
                bank.entries[i].existing_examples[0].raw_text,
            )
            for i in order
        ]
    )

    base = {c.entry_index: c.score for c in score_all(build_index(bank), build_query(target))}
    moved = {c.entry_index: c.score for c in score_all(build_index(shuffled), build_query(target))}
    for new_pos, old_pos in enumerate(order):
        assert abs(base[old_pos] - moved[new_pos]) < 1e-12


def _identity(param):
    return param.api_name, param.source_pointer


def _assert_matches_reference(bank, target):
    ranked = exclude_self(score_all(build_index(bank), build_query(target)), bank, target)
    docs = [tokenize(retrieval_text(p)) for p in bank.entries]
    me = (target.api_name, target.source_pointer)
    want = [
        (i, s)
        for i, s in ranking_reference(docs, list(build_query(target)))
        if _identity(bank.entries[i]) != me
    ]
    got = [(c.entry_index, c.score) for c in ranked]
    assert got == want
    assert len(ranked) == len(want)
    assert [(c.entry_index, c.score) for c in (ranked[i] for i in range(-len(ranked), 0))] == want
    assert [(c.entry_index, c.score) for c in ranked[1:-1]] == want[1:-1]
    # the benchmark's tracer counts the scored entries by bisecting the ranking
    assert bisect.bisect_left(ranked, 0.0, key=lambda c: -c.score) == sum(1 for _, s in want if s > 0)
    return ranked


def test_ranking_matches_full_sort_with_naive_exclusion():
    vocab = ["alpha", "beta", "gamma", "delta", "code", "currency", "user", "id"]
    rng = random.Random(11)
    for _ in range(200):
        bank, query = _random_bank_and_query(rng, vocab[:5])
        if rng.random() < 0.3:  # the same parameter mined twice
            bank.entries.append(rng.choice(bank.entries))
        twin = rng.choice(bank.entries)
        # the target's own entry, its description rewritten since mining
        target = dataclasses.replace(
            twin,
            description=" ".join(rng.choices(vocab, k=rng.randint(1, 6))),
            param_name=query.param_name,
            operation_id="",
        )
        _assert_matches_reference(bank, rng.choice([target, query]))


def test_excluded_twin_in_the_zero_score_tail():
    bank = make_bank(
        ("api", "alpha", "", "", "1"),
        ("api", "beta", "", "", "2"),
        ("api", "currency", "", "", "3"),
        ("api", "gamma", "", "", "4"),
        ("api", "currencyCode", "", "", "5"),
    )
    twin = bank.entries[1]
    target = dataclasses.replace(twin, param_name="currency", description="", operation_id="")
    ranked = _assert_matches_reference(bank, target)
    assert [c.entry_index for c in ranked] == [2, 4, 0, 3]
