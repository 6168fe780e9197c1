"""The workloads, and one measured run of a workload inside its own process.

A run drives the public library API as one closed-loop client: one
`enrich_document` call at a time at PARALLELISM, so icicl's own thread pool is
the only concurrency. Library functions are called through their modules
(`icicl.bank.load_bank`, not a local name) so that the tracer's patches see
the calls.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import icicl.bank
import icicl.document
import icicl.metrics
import icicl.pipeline
from icicl.backends import HttpBackend
from icicl.embeddings import TrigramEmbedder

import checks
import stub
import tracing
from gen import DENSE_WORDS, FIXTURE_WORDS, CorpusShape, TargetShape, WordProfile

PARALLELISM = 2
PROBE_CALLS = 20
MIN_CYCLES = 3
MIN_SETUP_S = 0.5  # set-ups repeat within a cycle until they have taken this long
TRACE_CYCLES = 5  # untraced and traced cycles alternate, untraced first and last

_SCALARS = ("string", "integer", "number", "datetime")


@dataclass(frozen=True)
class Workload:
    corpus: CorpusShape
    target: TargetShape
    words: WordProfile
    # "doc" starts from a bank mined before the run. "fuzz" is the whole user
    # flow: every cycle mines the corpus, enriches with include_trivial and
    # finishes with build_report, as `icicl eval` does.
    mode: str
    latency_ms: float | None  # None: the in-process stub; else the HTTP stub

    @property
    def fuzz(self) -> bool:
        return self.mode == "fuzz"


WORKLOADS = {
    # 400 specs x 50 operations x 5 parameters, every one with an example.
    "large_bank": Workload(
        corpus=CorpusShape(400, 50, 5, _SCALARS, 1.0, 0.0, ("json",), ("openapi",)),
        target=TargetShape(operations=2, kinds=("string", "integer", "datetime") * 2),
        words=FIXTURE_WORDS, mode="doc", latency_ms=None,
    ),
    # 20 specs x 10 operations x 5 parameters; 40 target parameters make 440 calls.
    "http_latency": Workload(
        corpus=CorpusShape(20, 10, 5, _SCALARS, 1.0, 0.0, ("json",), ("openapi",)),
        target=TargetShape(operations=8, kinds=_SCALARS * 10),
        words=FIXTURE_WORDS, mode="doc", latency_ms=20.0,
    ),
    # ~300 mixed specs mining to ~18k entries; the target has 18 model-bound
    # parameters (3 of them body fields) and 8 booleans and enums. Its dense
    # words make nearly every entry match nearly every query.
    "corpus_fuzz": Workload(
        corpus=CorpusShape(
            300, 12, 6, _SCALARS + ("boolean", "enum", "array"), 0.85, 0.25,
            ("json", "yaml"), ("openapi", "swagger"),
        ),
        target=TargetShape(
            operations=3,
            kinds=(_SCALARS + ("array", "boolean", "enum")) * 3,
            body_kinds=("string", "integer", "datetime", "boolean", "enum"),
        ),
        words=DENSE_WORDS, mode="fuzz", latency_ms=None,
    ),
}


@dataclass
class PassResult:
    enrich_s: float
    pass_s: float
    spec_digest: str
    records_digest: str
    model_bound: int
    failed: int
    violations: list[str]


class Run:
    """Inputs and settings of one run; each method is one phase the user waits for."""

    def __init__(self, workload: Workload, workdir: Path, seed: int, endpoint: str | None):
        self.w = workload
        self.workdir = workdir
        self.bank_path = workdir / "bank.jsonl"
        self.config = icicl.pipeline.RunConfig(
            bank_path=str(self.bank_path),
            mode=workload.mode,
            backend="http",
            endpoint=endpoint or "",
            seed=seed,
            parallelism=PARALLELISM,
            include_trivial=workload.fuzz,
        )
        self.endpoint = endpoint
        self.backend: Any = HttpBackend(endpoint) if endpoint else stub.StubBackend()
        self.embedder: Any = TrigramEmbedder()

    def mine(self) -> float:
        started = time.perf_counter()
        bank = icicl.bank.mine_bank(self.workdir / "corpus")
        icicl.bank.save_bank(bank, self.bank_path)
        return time.perf_counter() - started

    def setup(self) -> tuple[float, Any, Any]:
        started = time.perf_counter()
        bank = icicl.bank.load_bank(self.bank_path)
        doc = icicl.document.parse_document((self.workdir / "target.json").read_bytes())
        return time.perf_counter() - started, bank, doc

    def enrich_pass(self, bank: Any, doc: Any) -> PassResult:
        out = self.workdir / "out.json"
        records_path = self.workdir / "out.json.records.jsonl"
        started = time.perf_counter()
        result = icicl.pipeline.enrich_document(doc, bank, self.config, self.backend, self.embedder)
        enriched = time.perf_counter()
        spec = result.document.serialize()
        out.write_bytes(spec)
        icicl.metrics.write_records(result.records, records_path)
        icicl.pipeline.write_manifest(result.manifest, self.workdir / "out.json.manifest.json")
        report = None
        if self.w.fuzz:
            report = icicl.metrics.build_report(icicl.metrics.read_records(records_path), self.embedder)
        finished = time.perf_counter()

        violations = checks.check_examples(doc, spec, self.w.mode)
        if report is not None and len(report.per_parameter) != len(result.records):
            violations.append(f"eval scored {len(report.per_parameter)} of {len(result.records)} records")
        violations += checks.check_accounting(doc, result.records, result.manifest)
        if self.w.fuzz:
            violations += checks.check_fuzz_twins(doc, spec, set(result.plan.assignments))
        bound = len(checks.model_bound(checks.extract_parameters(doc)))
        return PassResult(
            enrich_s=enriched - started,
            pass_s=finished - started,
            spec_digest=hashlib.sha256(spec).hexdigest(),
            records_digest=hashlib.sha256(records_path.read_bytes()).hexdigest(),
            model_bound=bound,
            failed=result.manifest.counts["failed"],
            violations=violations,
        )

    def served_ms(self) -> list[float]:
        """Served latencies since the last call, from whichever stub answers."""
        if self.endpoint is None:
            return self.backend.drain_served_ms()
        with urllib.request.urlopen(self.endpoint + "stats", timeout=10) as resp:
            return json.loads(resp.read())["served_ms"]

    def probe_overhead(self) -> list[str]:
        """Time a few calls before the run, so a stalling stub fails it early."""
        self.served_ms()
        client = stub.time_calls(self.backend, PROBE_CALLS)
        violation = stub.check_overhead(client, self.served_ms())
        return [f"probe: {violation}"] if violation else []


def _fresh(fn: Any) -> Any:
    """Run one phase after collecting the previous phase's garbage."""
    gc.collect()
    return fn()


def _summary(passes: list[PassResult]) -> tuple[list[str], int, int]:
    violations = [v for p in passes for v in p.violations]
    if len({(p.spec_digest, p.records_digest) for p in passes}) != 1:
        violations.append("passes with the same seed wrote different spec or records bytes")
    attempted = sum(p.model_bound for p in passes)
    failed = sum(p.failed for p in passes)
    if failed:
        violations.append(f"{failed} parameters failed")
    return violations, attempted, failed


@dataclass
class Cycle:
    mine_s: float | None  # None where the workload does not mine
    setups: list[float]
    result: PassResult

    @property
    def wall_s(self) -> float:
        return (self.mine_s or 0.0) + statistics.median(self.setups) + self.result.pass_s


def one_cycle(run: Run) -> Cycle:
    """Mining (where the workload mines), set-ups until MIN_SETUP_S, one enrich pass."""
    mine_s = _fresh(run.mine) if run.w.fuzz else None
    setups: list[float] = []
    while not setups or sum(setups) < MIN_SETUP_S:
        bank = doc = None  # drop the previous set-up's bank first
        setup_s, bank, doc = _fresh(run.setup)
        setups.append(setup_s)
    return Cycle(mine_s, setups, _fresh(lambda: run.enrich_pass(bank, doc)))


def measure(run: Run, seconds: float) -> dict[str, Any]:
    """End-to-end metrics, tracing off.

    The run repeats cycles until `seconds` have passed, so that samples of
    every phase spread over the whole run; each metric is a median over its
    samples.
    """
    violations = run.probe_overhead() if run.endpoint else []
    cycles: list[Cycle] = []
    deadline = time.perf_counter() + seconds
    while len(cycles) < MIN_CYCLES or time.perf_counter() < deadline:
        cycles.append(one_cycle(run))
    passes = [c.result for c in cycles]
    more, attempted, failed = _summary(passes)
    mine_times = [c.mine_s for c in cycles if c.mine_s is not None]
    mine_s = statistics.median(mine_times) if mine_times else 0.0
    setup_s = statistics.median(s for c in cycles for s in c.setups)
    return {
        "violations": violations + more,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "params_per_s": (statistics.median(p.model_bound / p.enrich_s for p in passes), "1/s"),
            "setup_s": (setup_s, "s"),
            "wall_s": (mine_s + setup_s + statistics.median(p.pass_s for p in passes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        },
    }


def measure_traced(run: Run, spans_path: Path) -> dict[str, Any]:
    """Per-layer metrics from the last traced cycle.

    Untraced and traced cycles alternate, so that the tracing overhead (median
    traced wall over median untraced wall, minus one) compares cycles that
    saw the same host conditions.
    """
    violations = run.probe_overhead() if run.endpoint else []
    tracer = tracing.Tracer()
    plain_backend, plain_embedder = run.backend, run.embedder
    traced_backend, traced_embedder = tracer.wrap_backend(plain_backend), tracer.wrap_embedder(plain_embedder)
    untraced: list[Cycle] = []
    traced: list[Cycle] = []
    served: list[float] = []
    for i in range(TRACE_CYCLES):
        if i % 2 == 0:
            run.backend, run.embedder = plain_backend, plain_embedder
            untraced.append(one_cycle(run))
            continue
        run.backend, run.embedder = traced_backend, traced_embedder
        tracer.clear()
        run.served_ms()
        tracer.install()
        try:
            traced.append(one_cycle(run))
        finally:
            tracer.restore()
        served = run.served_ms()
    tracer.write(spans_path)

    more, attempted, failed = _summary([c.result for c in untraced + traced])
    violations += more
    client, call_failures = tracing.call_latencies_ms(tracer)
    overhead = stub.overhead_ms(client, served)
    violation = stub.check_overhead(client, served)
    if violation:
        violations.append(violation)
    percentiles = statistics.quantiles(client, n=100, method="inclusive")

    metrics = {name: (value, tracing.unit_of(name)) for name, value in tracing.layer_metrics(tracer).items()}
    metrics.update({
        "backends.call_p50_ms": (statistics.median(client), "ms"),
        "backends.call_p99_ms": (percentiles[98], "ms"),
        "backends.call_overhead_ms": (overhead, "ms"),
        "backends.retried": (len(served) - len(client), "count"),
        "backends.failed": (call_failures, "count"),
        "failed_share": (failed / attempted, "ratio"),
        "trace.overhead_share": (
            statistics.median(c.wall_s for c in traced) / statistics.median(c.wall_s for c in untraced) - 1.0,
            "ratio",
        ),
    })
    return {"violations": violations, "attempted": attempted, "failed": failed, "metrics": metrics}


def child_main(name: str, workdir: Path, seed: int, seconds: float, traced: bool, endpoint: str | None,
               spans_path: Path) -> int:
    run = Run(WORKLOADS[name], workdir, seed, endpoint)
    if not run.w.fuzz:
        run.mine()  # the bank the workload starts from, built before any timing
    outcome = measure_traced(run, spans_path) if traced else measure(run, seconds)
    for violation in outcome["violations"]:
        print(f"violation: {violation}", file=sys.stderr)
    outcome["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in outcome["metrics"].items()}
    outcome["correct"] = not outcome.pop("violations")
    print(json.dumps(outcome))
    return 0
