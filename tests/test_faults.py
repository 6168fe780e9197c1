"""Fault injection: whatever a completion or embedding service answers, the run completes.

Each test starts one local server, which closes each connection or keeps it
open, and hypothesis redraws its answers per example: each answer is any JSON
value or a well-formed one, and the server serves them in turn. A run of the
running example must return, give its parameter an outcome the README lists,
keep the accounting, and leave results the CLI can write as artifacts.
"""

import itertools
import json
import re
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from icicl.backends import HttpBackend, ReplayBackend
from icicl.embeddings import RemoteEmbedder, TrigramEmbedder
from icicl.metrics import write_records
from icicl.pipeline import RunConfig, enrich_document, write_manifest

from support import local_server, table_vector

README = Path(__file__).resolve().parents[1] / "README.md"

WELL_FORMED = object()  # the server builds a well-formed answer from the request

# lone surrogates are legal in JSON escapes, so draw them often
TEXTS = st.text(
    st.characters(blacklist_categories=()) | st.sampled_from(["\ud800", "\udfff", '"', "\n"]), max_size=12
)
KEYS = st.sampled_from(["text", "vectors"]) | st.text(max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXTS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(KEYS, children, max_size=3),
    max_leaves=8,
)
COMPLETION_ANSWERS = st.lists(
    JSON_VALUES
    | st.builds(lambda text: {"text": text}, TEXTS | st.sampled_from(['"USD"', '"EUR"', "USD", " ", ""]))
    | st.just(WELL_FORMED),
    min_size=1,
    max_size=3,
)
EMBEDDING_ANSWERS = st.lists(
    JSON_VALUES
    | st.builds(lambda vectors: {"vectors": vectors}, st.lists(st.lists(st.floats(), max_size=3), max_size=3))
    | st.just(WELL_FORMED),
    min_size=1,
    max_size=3,
)


def readme_outcomes() -> set[str]:
    """The outcome names the README's manifest entry lists."""
    entry = README.read_text(encoding="utf-8").split("- **manifest**", 1)[1].split("- **", 1)[0]
    return set(re.findall(r"`([a-z_]+)`", entry.split("outcomes", 1)[1]))


class Answers:
    """A local server's respond: the POSTs get `answers` in turn, which a test sets per run."""

    def __init__(self, well_formed):
        self.well_formed = well_formed
        self.answers = itertools.cycle([None])

    def __call__(self, headers, request):
        answer = next(self.answers)
        return 200, json.dumps(self.well_formed(request) if answer is WELL_FORMED else answer)


def check_run(doc, bank, backend, embedder, out_dir):
    result = enrich_document(doc, bank, RunConfig(), backend, embedder)
    outcomes = [o.outcome for o in result.manifest.outcomes]
    assert len(outcomes) == 1
    assert set(outcomes) <= readme_outcomes()
    counts = result.manifest.counts
    assert counts["enriched"] + counts["skipped"] + counts["failed"] == counts["extracted"] == 1
    result.document.serialize()
    write_records(result.records, out_dir / "out.records.jsonl")
    write_manifest(result.manifest, out_dir / "out.manifest.json")
    return outcomes[0]


def test_any_completion_answer_costs_at_most_one_parameter(running_doc, running_bank, tmp_path, keep_alive=False):
    seen = set()
    server_answers = Answers(lambda request: {"text": '"USD"'})
    with local_server(server_answers, keep_alive=keep_alive) as server:
        backend = HttpBackend(server.endpoint)

        # one run answered well-formed throughout and one never, so that both
        # outcomes below are seen whatever hypothesis draws
        @settings(max_examples=30, deadline=None)
        @given(answers=COMPLETION_ANSWERS)
        @example(answers=[WELL_FORMED])
        @example(answers=[None])
        def run(answers):
            server_answers.answers = itertools.cycle(answers)
            seen.add(check_run(running_doc, running_bank, backend, TrigramEmbedder(), tmp_path))

        run()
    assert {"enriched", "failed_backend"} <= seen


def test_any_completion_answer_over_keep_alive(running_doc, running_bank, tmp_path):
    """The same, against a server that keeps each connection open for the next answer."""
    test_any_completion_answer_costs_at_most_one_parameter(running_doc, running_bank, tmp_path, keep_alive=True)


def test_any_embedding_answer_costs_at_most_one_parameter(
    running_dir, running_doc, running_bank, tmp_path, keep_alive=False
):
    seen = set()
    server_answers = Answers(lambda request: {"vectors": [table_vector(t) for t in request["texts"]]})
    with local_server(server_answers, keep_alive=keep_alive) as server:
        embedder = RemoteEmbedder(server.endpoint)

        @settings(max_examples=30, deadline=None)
        @given(answers=EMBEDDING_ANSWERS)
        @example(answers=[WELL_FORMED])
        @example(answers=[None])
        def run(answers):
            server_answers.answers = itertools.cycle(answers)
            backend = ReplayBackend(running_dir / "replay.json")
            seen.add(check_run(running_doc, running_bank, backend, embedder, tmp_path))

        run()
    assert {"enriched", "failed_embedding"} <= seen


def test_any_embedding_answer_over_keep_alive(running_dir, running_doc, running_bank, tmp_path):
    """The same, against a server that keeps each connection open for the next answer."""
    test_any_embedding_answer_costs_at_most_one_parameter(running_dir, running_doc, running_bank, tmp_path, keep_alive=True)
