"""Tests of the benchmark's own parts. Run from the repository root:

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks
import gen
import stub
import tracing
from icicl.backends import HttpBackend
from icicl.document import parse_document
from icicl.prompts import RawGeneration, parse_generation

SMALL_CORPUS = gen.CorpusShape(
    specs=6, operations=3, params=4, kinds=("string", "integer", "datetime", "boolean", "enum", "array"),
    example_share=0.8, body_share=0.3, formats=("json", "yaml"), flavors=("openapi", "swagger"),
)
SMALL_TARGET = gen.TargetShape(operations=2, kinds=("string", "integer", "datetime", "boolean"), body_kinds=("number",))


def _corpus_digest(seed: int) -> str:
    h = hashlib.sha256()
    for name, data in gen.corpus_files(seed, SMALL_CORPUS, gen.FIXTURE_WORDS):
        h.update(name.encode() + b"\0" + data)
    return h.hexdigest()


def test_generators_repeat_for_a_seed_and_differ_across_seeds():
    assert _corpus_digest(3) == _corpus_digest(3)
    assert _corpus_digest(3) != _corpus_digest(4)
    assert gen.target_spec(3, SMALL_TARGET, gen.FIXTURE_WORDS) == gen.target_spec(3, SMALL_TARGET, gen.FIXTURE_WORDS)
    assert gen.target_spec(3, SMALL_TARGET, gen.FIXTURE_WORDS) != gen.target_spec(4, SMALL_TARGET, gen.FIXTURE_WORDS)


def test_corpus_mixes_formats_and_flavors():
    files = dict(gen.corpus_files(1, SMALL_CORPUS, gen.DENSE_WORDS))
    roots = [parse_document(data).root for data in files.values()]
    assert {name.rsplit(".", 1)[1] for name in files} == {"json", "yaml"}
    assert {"openapi" if "openapi" in r else "swagger" for r in roots} == {"openapi", "swagger"}


_GOOD = {"string": "abc", "integer": 7, "number": 1.5, "datetime": "2024-01-15T10:00:00Z"}


def _enriched(target: bytes, mode: str, values: dict[str, list]) -> bytes:
    """The target with the given examples written where `mode` puts them."""
    doc = parse_document(target)
    for param in checks.model_bound(checks.extract_parameters(doc)):
        node = doc.resolve(param.source_pointer)
        carrier = node["schema"] if "schema" in node else node
        carrier["examples" if mode == "doc" else "enum"] = values.get(
            param.source_pointer, [_GOOD[param.declared_type.kind]]
        )
    return doc.serialize()


def test_output_check_accepts_typed_examples_and_rejects_missing_or_mistyped_ones():
    target_bytes = gen.target_spec(1, SMALL_TARGET, gen.FIXTURE_WORDS)
    target = parse_document(target_bytes)
    pointers = {p.declared_type.kind: p.source_pointer for p in checks.extract_parameters(target)}

    assert checks.check_examples(target, _enriched(target_bytes, "doc", {}), "doc") == []

    missing = _enriched(target_bytes, "doc", {pointers["integer"]: []})
    assert any("expected 1-3 examples" in v for v in checks.check_examples(target, missing, "doc"))

    mistyped = _enriched(target_bytes, "doc", {pointers["datetime"]: ["2024-01-15T10:00:00Z", "yesterday"]})
    assert any("'yesterday' is not a datetime" in v for v in checks.check_examples(target, mistyped, "doc"))

    too_many = _enriched(target_bytes, "doc", {pointers["string"]: ["a", "b", "c", "d"]})
    assert checks.check_examples(target, too_many, "doc") != []


def test_stub_greedy_answers_are_typed_and_sampled_answers_repeat():
    prompt = "# header {}\ninput_0 = {{}}\n# must generate a unique limit integer\nexample_0 = "
    greedy = parse_generation(RawGeneration(stub.stub_answer(prompt.format(0), 0.0)), "integer")
    assert greedy is not None and greedy.parsed_kind == "integer"
    sampled = [stub.stub_answer(prompt.format(i), 0.5) for i in range(200)]
    assert len(set(sampled)) <= stub.DISTINCT_VALUES + 1
    assert 0 < sampled.count('"not-a-value"') < 40


class _SplitSendHandler(stub.StubHandler):
    """Writes headers and body in separate sends, as BaseHTTPRequestHandler does."""

    def respond(self, payload: bytes) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


def _overhead_violation(handler: type) -> str | None:
    server = stub.StubServer(latency_ms=5.0, handler=handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        backend = HttpBackend(f"http://127.0.0.1:{server.server_address[1]}/")
        return stub.check_overhead(stub.time_calls(backend, 15), server.drain())
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_overhead_check_passes_single_send_and_trips_on_split_sends():
    assert _overhead_violation(stub.StubHandler) is None
    violation = _overhead_violation(_SplitSendHandler)
    assert violation is not None and "exceeds" in violation


def test_benchmark_json_names_every_workload():
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"params_per_s", "setup_s", "wall_s", "peak_rss_mb"}


def test_tracer_parents_pool_spans_to_enrich_document_and_subtracts_them_from_self_time():
    tracer = tracing.Tracer()
    child = tracer.wrap("retrieval.score_all", lambda: time.sleep(0.05) or [])

    def enrich() -> None:
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: child(), range(2)))

    tracer.wrap(tracing.ROOT_SPAN, enrich)()
    (root,) = [s for s in tracer.spans if s.name == tracing.ROOT_SPAN]
    children = [s for s in tracer.spans if s.name == "retrieval.score_all"]
    assert [s.parent for s in children] == [root.id, root.id]
    metrics = tracing.layer_metrics(tracer)
    assert metrics["retrieval.score_all.calls"] == 2
    assert metrics["retrieval.score_all.wall_s"] >= 0.1
    assert 0.0 <= metrics[f"{tracing.ROOT_SPAN}.self_s"] < (root.end - root.start) - 0.04
    assert metrics[f"{tracing.ROOT_SPAN}.retrieval_contexts_share"] > 0.5


def _median_touched_share(profile: gen.WordProfile, tmp_path: Path) -> float:
    from icicl.bank import mine_bank
    from icicl.retrieval import build_index, build_query, score_all

    shape = gen.CorpusShape(10, 20, 5, ("string", "integer"), 1.0, 0.0, ("json",), ("openapi",))
    gen.write_corpus(tmp_path, 1, shape, profile)
    index = build_index(mine_bank(tmp_path))
    target = parse_document(gen.target_spec(1, gen.TargetShape(operations=4, kinds=("string",) * 20), profile))
    shares = []
    for param in checks.extract_parameters(target):
        ranked = score_all(index, build_query(param))
        shares.append(sum(1 for c in ranked if c.score > 0) / len(ranked))
    return statistics.median(shares)


def test_fixture_words_touch_far_fewer_entries_than_dense_words(tmp_path):
    fixture = _median_touched_share(gen.FIXTURE_WORDS, tmp_path / "fixture")
    dense = _median_touched_share(gen.DENSE_WORDS, tmp_path / "dense")
    assert fixture < 0.45 < 0.75 < dense
