#!/usr/bin/env python3
"""Regenerate the derived currency-walkthrough fixtures under tests/fixtures/running/.

The spec file and the bank contents are authored here; the replay fixture and
the golden prompts are derived by driving the library itself, so they stay in
lockstep with prompt rendering and context sampling. Run after any change to
those layers:

    python3 scripts/regen_fixtures.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

from icicl.backends import ReplayBackend, generate_greedy, prompt_digest
from icicl.bank import load_bank, save_bank
from icicl.contexts import greedy_context, sample_contexts
from icicl.document import parse_document
from icicl.extract import extract_parameters
from icicl.model import ApiParameter, BankEntry, ExampleValue, ParameterBank, SchemaType
from icicl.pipeline import RunConfig, derive_parameter_seed, enrich_document
from icicl.prompts import RawGeneration, parse_generation, render_prompt
from icicl.retrieval import build_index, build_query, exclude_self, score_all

from support import FixtureEmbedder

RUNNING = REPO / "tests" / "fixtures" / "running"
GOLDENS = RUNNING / "goldens"

RUN_SEED = 0

# One strong lexical match (the currency-code entry), four weaker currency
# entries, and three fillers that should stay out of the greedy context.
BANK_ROWS = [
    ("beezup", "contractInfo", "currencyCode", "The currency code (ISO 4217)",
     "EUR", "/paths/~1v2~1contracts/get/parameters/0"),
    ("exchange-rates", "latestRates", "base", "Base currency for conversion rates",
     "USD", "/paths/~1latest/get/parameters/0"),
    ("open-exchange", "getLatest", "symbols", "Currency symbols to filter results by",
     "GBP", "/paths/~1api~1latest.json/get/parameters/0"),
    ("world-bank", "getCountry", "countryCode", "ISO 3166 country code",
     "BR", "/paths/~1countries~1{code}/get/parameters/0"),
    ("currencylayer", "liveQuotes", "source", "Specify a source currency",
     "JPY", "/paths/~1live/get/parameters/0"),
    ("petstore", "findPetsByStatus", "status", "Status values to filter by",
     "available", "/paths/~1pet~1findByStatus/get/parameters/0"),
    ("weatherapi", "realtimeWeather", "q", "Query location",
     "London", "/paths/~1current.json/get/parameters/0"),
    ("github", "getUserByUsername", "username", "The handle for the GitHub user account",
     "octocat", "/paths/~1users~1{username}/get/parameters/0"),
]

GREEDY_RESPONSE = '"USD"'
DIVERSE_RESPONSES = [
    '"USD"', '"GPP"', '"USD"', '"CAD"', '"ZAR"',
    '"CAD"', '"INR"', '"MXN"', '"CNY"', '"EUR"',
]


def build_running_bank() -> ParameterBank:
    entries = []
    for api, opid, name, desc, example, pointer in BANK_ROWS:
        param = ApiParameter(
            api_name=api,
            operation_id=opid,
            param_name=name,
            description=desc,
            location="query",
            required=False,
            declared_type=SchemaType(kind="string"),
            existing_examples=(ExampleValue.from_raw(example),),
            source_pointer=pointer,
        )
        entries.append(BankEntry(parameter=param, canonical_example=param.existing_examples[0]))
    return ParameterBank(entries=entries, source_digest="1" * 64)


def main() -> None:
    GOLDENS.mkdir(parents=True, exist_ok=True)

    bank = build_running_bank()
    save_bank(bank, RUNNING / "bank.jsonl")
    bank = load_bank(RUNNING / "bank.jsonl")

    doc = parse_document((RUNNING / "spec.yaml").read_bytes())
    (param,) = extract_parameters(doc)
    assert param.param_name == "currency" and param.api_name == "rest-countries"

    index = build_index(bank)
    candidates = exclude_self(score_all(index, build_query(param)), bank, param)
    names = [bank.entries[c.entry_index].parameter.api_name for c in candidates]
    assert names[0] == "beezup", f"expected the currency-code entry on top, got {names[:3]}"
    top5 = set(names[:5])
    assert top5 == {"beezup", "exchange-rates", "open-exchange", "world-bank", "currencylayer"}, top5

    g_context = greedy_context(candidates, bank, param)
    greedy_prompt = render_prompt(g_context)
    (GOLDENS / "greedy_prompt.txt").write_text(greedy_prompt, encoding="utf-8")

    greedy_value = parse_generation(RawGeneration(text=GREEDY_RESPONSE), param.declared_type.kind)
    assert greedy_value is not None and greedy_value.raw_text == "USD"

    context_set = sample_contexts(
        candidates, bank, param, greedy_value, seed=derive_parameter_seed(RUN_SEED, param)
    )
    diverse_prompts = [render_prompt(ctx) for ctx in context_set.contexts]
    lead_shots = [ctx.shots[0].parameter.api_name for ctx in context_set.contexts]
    assert lead_shots.count("beezup") >= 9, lead_shots
    assert lead_shots[0] == "beezup", lead_shots
    for i, prompt in enumerate(diverse_prompts):
        (GOLDENS / f"diverse_prompt_{i:02d}.txt").write_text(prompt, encoding="utf-8")

    responses: dict[str, list[str]] = {prompt_digest(greedy_prompt): [GREEDY_RESPONSE]}
    for prompt, reply in zip(diverse_prompts, DIVERSE_RESPONSES):
        responses.setdefault(prompt_digest(prompt), []).append(reply)
    (RUNNING / "replay.json").write_text(
        json.dumps({"default": "", "responses": responses}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    # end-to-end sanity: replayed enrichment must land on USD / CAD / EUR
    config = RunConfig(
        bank_path=str(RUNNING / "bank.jsonl"),
        mode="fuzz",
        backend="replay",
        replay_file=str(RUNNING / "replay.json"),
        embedder="remote",
        seed=RUN_SEED,
    )
    backend = ReplayBackend(RUNNING / "replay.json")
    result = enrich_document(doc, bank, config, backend, FixtureEmbedder())
    final = result.plan.assignments[param.source_pointer]
    texts = [e.raw_text for e in final.examples]
    assert texts == ["USD", "CAD", "EUR"], texts
    assert final.provenance == ("greedy", "repeated", "embedding_selected"), final.provenance

    sanity = generate_greedy(ReplayBackend(RUNNING / "replay.json"), g_context)
    assert sanity.text == GREEDY_RESPONSE

    print(f"bank entries : {len(bank.entries)}")
    print(f"lead shots   : {lead_shots}")
    print(f"final        : {texts}")
    print(f"goldens      : greedy + {len(diverse_prompts)} diverse under {GOLDENS}")


if __name__ == "__main__":
    main()
