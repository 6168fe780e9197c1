"""Type checking and the three-example selection rule."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icicl.embeddings import TrigramEmbedder
from icicl.errors import GreedyMissing
from icicl.model import PARSED_KINDS, SCHEMA_KINDS, ExampleValue, SchemaType, decode_fields, encode_fields
from icicl.postprocess import CandidatePool, ExampleSet, is_rfc3339, select_examples, type_check

from support import EMBED_TABLE, FixtureEmbedder, select_oracle, table_vector

STRING = SchemaType(kind="string")


def ev(text):
    return ExampleValue.from_raw(text)


def pool(greedy, diverse, target=STRING):
    g = ev(greedy) if isinstance(greedy, str) else greedy
    return CandidatePool(
        greedy=g, diverse=tuple(ev(d) if isinstance(d, str) else d for d in diverse), target_type=target
    )


@pytest.mark.parametrize(
    "text,ok",
    [
        ("2020-01-02", True),
        ("2020-13-02", False),
        ("2020-02-30", False),
        ("2020-02-29", True),  # leap year
        ("2019-02-29", False),
        ("2020-01-02T03:04:05Z", True),
        ("2020-01-02t03:04:05z", True),
        ("2020-01-02T03:04:05.123456Z", True),
        ("2020-01-02T23:59:60Z", True),  # leap second
        ("2020-01-02T24:00:00Z", False),
        ("2020-01-02T03:60:05Z", False),
        ("2020-01-02T03:04:61Z", False),
        ("2020-01-02T03:04:05+05:30", True),
        ("2020-01-02T03:04:05-23:59", True),
        ("2020-01-02T03:04:05+24:00", False),
        ("2020-01-02T03:04:05+05:60", False),
        ("2020-01-02T03:04:05", False),  # offset required
        ("2020-01-02 03:04:05Z", False),  # space separator
        ("20200102", False),
        ("January 2, 2020", False),
        ("", False),
    ],
)
def test_is_rfc3339(text, ok):
    assert is_rfc3339(text) is ok


ENUM_OF_EVERY_KIND = SchemaType(kind="enum", enum_values=("red", "1", "2.5", "true", "[1]", '{"a":1}', "null"))

TYPE_CHECK_ROWS = [
    ("USD", None, SchemaType(kind="string"), True),
    ("25", None, SchemaType(kind="string"), False),  # bare number is not a string
    ("[1]", None, SchemaType(kind="string"), False),
    ('{"a":1}', None, SchemaType(kind="string"), False),
    ("25", None, SchemaType(kind="integer"), True),
    ("2.5", None, SchemaType(kind="integer"), False),
    ("2.5", None, SchemaType(kind="number"), True),
    ("25", None, SchemaType(kind="number"), True),
    ("true", None, SchemaType(kind="boolean"), True),
    ("True", None, SchemaType(kind="boolean"), False),  # JSON booleans only
    ('{"a": 1}', None, SchemaType(kind="object"), True),
    ("2020-01-02", None, SchemaType(kind="datetime"), True),
    ("not a date", None, SchemaType(kind="datetime"), False),
    ("red", None, SchemaType(kind="enum", enum_values=("red", "blue")), True),
    ("RED", None, SchemaType(kind="enum", enum_values=("red", "blue")), False),
    ("green", None, SchemaType(kind="enum", enum_values=("red", "blue")), False),
    ("[1, 2]", None, SchemaType(kind="array", item_kind=SchemaType(kind="integer")), True),
    ("[1, 2.5]", None, SchemaType(kind="array", item_kind=SchemaType(kind="integer")), False),
    ('["a"]', None, SchemaType(kind="array", item_kind=SchemaType(kind="string")), True),
    ("[]", None, SchemaType(kind="array", item_kind=SchemaType(kind="string")), True),
    ("nonsense [", None, SchemaType(kind="array", item_kind=SchemaType(kind="string")), False),
    ("anything at all", None, SchemaType(kind="unknown"), True),
    ("42", None, SchemaType(kind="unknown"), True),
    # every schema kind meets every parsed kind at least once
    ("2.5", None, SchemaType(kind="string"), False),
    ("true", None, SchemaType(kind="string"), False),
    ("null", None, SchemaType(kind="string"), False),
    ("USD", None, SchemaType(kind="integer"), False),
    ("true", None, SchemaType(kind="integer"), False),
    ("[1]", None, SchemaType(kind="integer"), False),
    ('{"a":1}', None, SchemaType(kind="integer"), False),
    ("null", None, SchemaType(kind="integer"), False),
    ("USD", None, SchemaType(kind="number"), False),
    ("true", None, SchemaType(kind="number"), False),
    ("[1]", None, SchemaType(kind="number"), False),
    ('{"a":1}', None, SchemaType(kind="number"), False),
    ("null", None, SchemaType(kind="number"), False),
    ("1", None, SchemaType(kind="boolean"), False),
    ("2.5", None, SchemaType(kind="boolean"), False),
    ("[true]", None, SchemaType(kind="boolean"), False),
    ('{"a":true}', None, SchemaType(kind="boolean"), False),
    ("null", None, SchemaType(kind="boolean"), False),
    ("USD", None, SchemaType(kind="object"), False),
    ("25", None, SchemaType(kind="object"), False),
    ("2.5", None, SchemaType(kind="object"), False),
    ("true", None, SchemaType(kind="object"), False),
    ("[{}]", None, SchemaType(kind="object"), False),
    ("null", None, SchemaType(kind="object"), False),
    ("20200102", None, SchemaType(kind="datetime"), False),  # a bare number is not a date
    ("2020.0102", None, SchemaType(kind="datetime"), False),
    ("true", None, SchemaType(kind="datetime"), False),
    ('["2020-01-02"]', None, SchemaType(kind="datetime"), False),
    ('{"d":"2020-01-02"}', None, SchemaType(kind="datetime"), False),
    ("null", None, SchemaType(kind="datetime"), False),
    ("1", None, ENUM_OF_EVERY_KIND, True),
    ("2.5", None, ENUM_OF_EVERY_KIND, True),
    ("true", None, ENUM_OF_EVERY_KIND, True),
    ("[1]", None, ENUM_OF_EVERY_KIND, True),
    ('{"a":1}', None, ENUM_OF_EVERY_KIND, True),
    ("null", None, ENUM_OF_EVERY_KIND, True),
    ("2", None, ENUM_OF_EVERY_KIND, False),
    ("[1, 2]", None, ENUM_OF_EVERY_KIND, False),
    ('{"a": 1}', None, ENUM_OF_EVERY_KIND, False),  # membership is by text
    ("USD", None, SchemaType(kind="array", item_kind=SchemaType(kind="unknown")), False),
    ("1", None, SchemaType(kind="array", item_kind=SchemaType(kind="integer")), False),
    ("2.5", None, SchemaType(kind="array", item_kind=SchemaType(kind="number")), False),
    ("true", None, SchemaType(kind="array", item_kind=SchemaType(kind="boolean")), False),
    ('{"a":1}', None, SchemaType(kind="array", item_kind=SchemaType(kind="unknown")), False),
    ("null", None, SchemaType(kind="array", item_kind=SchemaType(kind="unknown")), False),
    ('[""]', None, SchemaType(kind="array", item_kind=SchemaType(kind="string")), False),  # an empty text is no example
    ('["", null]', None, SchemaType(kind="array", item_kind=SchemaType(kind="unknown")), True),
    ('[[1], [2]]', None, SchemaType(kind="array", item_kind=SchemaType(kind="array", item_kind=SchemaType(kind="integer"))), True),
    ('[[1], [2.5]]', None, SchemaType(kind="array", item_kind=SchemaType(kind="array", item_kind=SchemaType(kind="integer"))), False),
    ("2.5", None, SchemaType(kind="unknown"), True),
    ("true", None, SchemaType(kind="unknown"), True),
    ("[1]", None, SchemaType(kind="unknown"), True),
    ('{"a":1}', None, SchemaType(kind="unknown"), True),
    ("null", None, SchemaType(kind="unknown"), True),
]


@pytest.mark.parametrize("raw,kind,schema,ok", TYPE_CHECK_ROWS)
def test_type_check_matrix(raw, kind, schema, ok):
    assert type_check(ev(raw), schema) is ok


def test_type_check_matrix_meets_every_schema_kind_with_every_parsed_kind():
    met = {(schema.kind, ev(raw).parsed_kind) for raw, _kind, schema, _ok in TYPE_CHECK_ROWS}
    assert met == {(schema, parsed) for schema in SCHEMA_KINDS for parsed in PARSED_KINDS}


class TestSelection:
    def test_running_example(self):
        p = pool("USD", ["USD", "GPP", "USD", "CAD", "ZAR", "CAD", "INR", "MXN", "CNY", "EUR"])
        chosen = select_examples(p, FixtureEmbedder())
        assert [e.raw_text for e in chosen.examples] == ["USD", "CAD", "EUR"]
        assert chosen.provenance == ("greedy", "repeated", "embedding_selected")
        assert chosen.greedy_included is True

    def test_greedy_absent_raises(self):
        with pytest.raises(GreedyMissing):
            select_examples(pool(None, ["a"]), FixtureEmbedder())

    def test_greedy_type_failure_raises(self):
        p = pool(ev("25"), ["a"], target=STRING)
        with pytest.raises(GreedyMissing):
            select_examples(p, FixtureEmbedder())

    def test_type_incorrect_diverse_dropped(self):
        p = pool("USD", ["25", "[1]", "EUR", "25"], target=STRING)
        chosen = select_examples(p, FixtureEmbedder())
        texts = [e.raw_text for e in chosen.examples]
        assert "25" not in texts and "[1]" not in texts
        assert texts[0] == "USD" and "EUR" in texts

    def test_casefold_merges_and_keeps_first_casing(self):
        p = pool("USD", ["usd", "Cad", "CAD", "cad"])
        chosen = select_examples(p, FixtureEmbedder())
        assert [e.raw_text for e in chosen.examples][:2] == ["USD", "Cad"]
        assert chosen.provenance[1] == "repeated"

    def test_repeats_ranked_by_count_then_first_seen(self):
        p = pool("g", ["b", "a", "a", "b", "c", "c", "a"])
        chosen = select_examples(p, FixtureEmbedder())
        # a appears three times, b and c twice each; b was seen before c
        assert [e.raw_text for e in chosen.examples] == ["g", "a", "b"]
        assert chosen.provenance == ("greedy", "repeated", "repeated")

    def test_greedy_repeat_does_not_take_a_slot_twice(self):
        p = pool("USD", ["USD", "USD", "EUR", "CAD"])
        chosen = select_examples(p, FixtureEmbedder())
        texts = [e.raw_text for e in chosen.examples]
        assert texts[0] == "USD"
        assert texts.count("USD") == 1
        assert len(texts) == 3

    def test_embedding_fills_by_similarity_to_greedy(self):
        # no repeats at all: the two nearest to USD are EUR (0.96) and CAD (0.6)
        p = pool("USD", ["ZAR", "EUR", "MXN", "CAD"])
        chosen = select_examples(p, FixtureEmbedder())
        assert [e.raw_text for e in chosen.examples] == ["USD", "EUR", "CAD"]
        assert chosen.provenance == ("greedy", "embedding_selected", "embedding_selected")

    def test_similarity_tie_breaks_by_first_seen(self):
        table = {"g": [1.0, 0.0], "x": [0.0, 1.0], "y": [0.0, 1.0]}
        p = pool("g", ["y", "x"])
        chosen = select_examples(p, FixtureEmbedder(table))
        assert [e.raw_text for e in chosen.examples] == ["g", "y", "x"]

    def test_greedy_alone_when_nothing_else_survives(self):
        p = pool("USD", ["25", "42"], target=STRING)
        chosen = select_examples(p, FixtureEmbedder())
        assert [e.raw_text for e in chosen.examples] == ["USD"]
        assert chosen.provenance == ("greedy",)

    def test_empty_diverse_is_fine(self):
        chosen = select_examples(pool("USD", []), FixtureEmbedder())
        assert [e.raw_text for e in chosen.examples] == ["USD"]


def test_example_set_invariants():
    with pytest.raises(ValueError):
        ExampleSet(examples=(), provenance=())
    with pytest.raises(ValueError):
        ExampleSet(examples=(ev("a"),) * 4, provenance=("copied",) * 4)
    with pytest.raises(ValueError):
        ExampleSet(examples=(ev("a"),), provenance=("bogus",))
    written = json.dumps(ExampleSet(examples=(ev("a"),), provenance=("greedy",)), default=encode_fields)
    roundtrip = decode_fields(ExampleSet, json.loads(written))
    assert roundtrip.examples[0].raw_text == "a"
    assert roundtrip.greedy_included is True


def test_greedy_included_follows_provenance():
    copied = ExampleSet(examples=(ev("a"),), provenance=("copied",))
    assert copied.greedy_included is False
    written = json.loads(json.dumps(copied, default=encode_fields))
    assert written["greedy_included"] is False  # still written, so record bytes do not change
    stale = {**written, "greedy_included": True}
    assert decode_fields(ExampleSet, stale).greedy_included is False  # the stored flag is not trusted


WORDS = ["USD", "usd", "EUR", "CAD", "GPP", "ZAR", "INR", "MXN", "CNY", "gold", "Gold"]


def test_randomized_agreement_with_oracle():
    """1,000 random pools must match the independent selector exactly."""
    rng = random.Random(20240817)
    embedder = TrigramEmbedder()

    def embed_fn(text):
        return tuple(embedder.embed_one(text).components)

    trials = 1000
    for trial in range(trials):
        greedy = rng.choice([None, *WORDS])
        diverse = [rng.choice(WORDS + ["7", "[1]"]) for _ in range(rng.randint(0, 10))]
        p = pool(greedy if greedy is None else greedy, diverse)

        expected = select_oracle(
            None if greedy is None else greedy,
            diverse,
            lambda text: not text.lstrip().startswith(("7", "[")),
            embed_fn,
        )
        if expected is None:
            with pytest.raises(GreedyMissing):
                select_examples(p, embedder)
            continue
        want_texts, want_prov = expected
        chosen = select_examples(p, embedder)
        assert [e.raw_text for e in chosen.examples] == want_texts, f"trial {trial}"
        assert list(chosen.provenance) == want_prov, f"trial {trial}"


@settings(max_examples=80, deadline=None)
@given(
    greedy=st.sampled_from(WORDS),
    diverse=st.lists(st.sampled_from(WORDS), max_size=10),
)
def test_selection_properties(greedy, diverse):
    chosen = select_examples(pool(greedy, diverse), TrigramEmbedder())
    assert 1 <= len(chosen.examples) <= 3
    assert chosen.provenance[0] == "greedy"
    assert chosen.examples[0].raw_text == greedy
    folded = [e.raw_text.casefold() for e in chosen.examples]
    assert len(folded) == len(set(folded))
    # every selected value is greedy or appeared among the diverse texts
    source = {w.casefold() for w in [greedy, *diverse]}
    assert all(f in source for f in folded)
    # provenance "repeated" exactly when the value occurred at least twice
    counts = {}
    for w in [greedy, *diverse]:
        counts[w.casefold()] = counts.get(w.casefold(), 0) + 1
    for value, prov in zip(chosen.examples[1:], chosen.provenance[1:]):
        expected = "repeated" if counts[value.raw_text.casefold()] >= 2 else "embedding_selected"
        assert prov == expected
