"""Prompt rendering goldens and completion parsing."""

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icicl.bank import load_bank, mine_bank, save_bank
from icicl.contexts import greedy_context, sample_contexts
from icicl.model import SCHEMA_KINDS, ExampleValue
from icicl.pipeline import derive_parameter_seed
from icicl.prompts import HEADER, RawGeneration, _input_block, parse_generation, render_prompt
from icicl.retrieval import ScoredCandidate, build_index, build_query, exclude_self, score_all

from support import make_bank, make_param


@pytest.fixture()
def running_candidates(running_bank, currency_param):
    index = build_index(running_bank)
    return exclude_self(score_all(index, build_query(currency_param)), running_bank, currency_param)


def test_greedy_prompt_matches_golden_bytes(running_candidates, running_bank, currency_param, goldens_dir):
    context = greedy_context(running_candidates, running_bank, currency_param)
    rendered = render_prompt(context)
    golden = (goldens_dir / "greedy_prompt.txt").read_bytes()
    assert rendered.encode("utf-8") == golden


def test_diverse_prompts_match_golden_bytes(running_candidates, running_bank, currency_param, goldens_dir):
    seed = derive_parameter_seed(0, currency_param)
    cs = sample_contexts(
        running_candidates, running_bank, currency_param, ExampleValue.from_raw("USD"), seed=seed
    )
    for i, ctx in enumerate(cs.contexts):
        golden = (goldens_dir / f"diverse_prompt_{i:02d}.txt").read_bytes()
        assert render_prompt(ctx).encode("utf-8") == golden, f"context {i}"


def test_prompt_layout_details(running_candidates, running_bank, currency_param):
    context = greedy_context(running_candidates, running_bank, currency_param)
    text = render_prompt(context)

    assert text.startswith(HEADER + "\n")
    assert text.endswith("example_5 = ")  # dangling, trailing space, no newline
    assert "# must generate a unique currency string" in text
    assert text.count("input_") == 6
    # shots carry their example as a JSON literal on its own line
    assert '\nexample_0 = "EUR"\n' in text


def test_diverse_prompt_has_self_shot_and_six_index(running_candidates, running_bank, currency_param):
    cs = sample_contexts(
        running_candidates, running_bank, currency_param, ExampleValue.from_raw("USD"), seed=5
    )
    text = render_prompt(cs.contexts[0])
    assert text.endswith("example_6 = ")
    assert '\nexample_5 = "USD"\n' in text  # the greedy self shot precedes the target
    assert text.count('"param_name": "currency"') == 2  # self shot and target


def test_input_block_json_shape():
    param = make_param(
        param_name="city",
        description="Name of the city",
        operation_id="getWeather",
        api_name="weather",
        kind="string",
    )
    context = greedy_context(
        [ScoredCandidate(0, 1.0)],
        make_bank(("b", "x", "d", "op", "v")),
        param,
        shots=1,
    )
    text = render_prompt(context)
    assert '"param_name": "x"' in text
    block = text.split("input_1 = ", 1)[1]
    assert block.startswith("{\n    \"param_name\": \"city\",\n    \"type\": \"string\",")
    assert '"operation_id": "getWeather"' in block
    assert '"api_name": "weather"' in block


def test_a_mined_string_that_reads_as_a_number_renders_quoted(tmp_path):
    spec = """openapi: 3.0.3
info: {title: Post, version: "1"}
paths:
  /offices:
    get:
      operationId: findOffice
      parameters:
        - {name: zip, in: query, description: Postal code, schema: {type: string}, example: "94103"}
"""
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "post.yaml").write_text(spec, encoding="utf-8")
    save_bank(mine_bank(tmp_path / "corpus"), tmp_path / "bank.jsonl")
    bank = load_bank(tmp_path / "bank.jsonl")
    (entry,) = bank.entries
    assert entry.existing_examples == (ExampleValue("94103", "string"),)
    context = greedy_context([ScoredCandidate(0, 1.0)], bank, make_param(param_name="postcode"), shots=1)
    assert '\nexample_0 = "94103"\n' in render_prompt(context)


# any code point, lone surrogates included, and the ones JSON or Python treat specially
FIELD_TEXTS = st.text(
    st.characters(blacklist_categories=())
    | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\x85", "\u2028", "\u2029", "\ud800", "\udfff", "\U0001f600"])
)


@settings(max_examples=200, deadline=None)
@given(name=FIELD_TEXTS, kind=FIELD_TEXTS, operation_id=FIELD_TEXTS, description=FIELD_TEXTS, api_name=FIELD_TEXTS)
def test_input_block_body_is_what_json_dumps_with_indent_writes(name, kind, operation_id, description, api_name):
    param = SimpleNamespace(
        param_name=name,
        declared_type=SimpleNamespace(kind=kind),
        operation_id=operation_id,
        description=description,
        api_name=api_name,
    )
    fields = {
        "param_name": name,
        "type": kind,
        "operation_id": operation_id,
        "description": description,
        "api_name": api_name,
    }
    body = json.dumps(fields, indent=4, ensure_ascii=False)
    assert _input_block(2, param) == f"input_2 = {body}\n# must generate a unique {name} {kind}\n"


@pytest.mark.parametrize(
    "text,kind,expected_raw,expected_kind",
    [
        ('"USD"', "string", "USD", "string"),
        ("'USD'", "string", "USD", "string"),
        ("USD", "string", "USD", "string"),
        ("42", "integer", "42", "integer"),
        ('"42"', "integer", '"42"', "string"),  # integers keep their quotes
        ('"94103"', "string", "94103", "string"),  # what quotes held stays a string
        ("'1.0'", "unknown", "1.0", "string"),
        ('"[1]"', "datetime", "[1]", "string"),
        ("94103", "string", "94103", "integer"),  # unquoted, it is a JSON integer
        ('"94103\'', "string", '"94103\'', "string"),  # quotes that do not match stay
        ('"2020-01-01T00:00:00Z"', "datetime", "2020-01-01T00:00:00Z", "string"),
        ('"red"', "enum", "red", "string"),
        ("  3.5  \nnoise", "number", "3.5", "number"),
        ('"USD"\n"EUR"', "string", "USD", "string"),
        ("true", "boolean", "true", "boolean"),
        ('""', "string", None, None),  # quotes around nothing
    ],
)
def test_parse_generation_matrix(text, kind, expected_raw, expected_kind):
    value = parse_generation(RawGeneration(text=text), kind)
    if expected_raw is None:
        assert value is None
    else:
        assert value is not None
        assert value.raw_text == expected_raw
        assert value.parsed_kind == expected_kind


QUOTES_STRIPPED = {
    "string": True,
    "integer": False,
    "number": False,
    "boolean": False,
    "array": False,
    "object": False,
    "enum": True,
    "datetime": True,
    "unknown": True,
}


@pytest.mark.parametrize("kind,stripped", QUOTES_STRIPPED.items())
def test_quotes_are_stripped_exactly_for_kinds_a_string_satisfies(kind, stripped):
    # what the quotes held is a string, though it reads as a JSON integer
    value = parse_generation(RawGeneration(text='"7"'), kind)
    assert (value.raw_text, value.parsed_kind) == (("7", "string") if stripped else ('"7"', "string"))


def test_quote_stripping_cases_name_every_schema_kind():
    assert set(QUOTES_STRIPPED) == SCHEMA_KINDS


def test_parse_generation_empty_and_whitespace():
    assert parse_generation(RawGeneration(text=""), "string") is None
    # only the first line counts, matching the newline stop sequence
    assert parse_generation(RawGeneration(text="   \n  x"), "string") is None
    assert parse_generation(RawGeneration(text="\n\n"), "string") is None


def test_parse_generation_mismatched_quotes_kept():
    value = parse_generation(RawGeneration(text='"USD\''), "string")
    assert value is not None
    assert value.raw_text == '"USD\''
