"""End-to-end enrichment: extract, retrieve, prompt, select, re-encode."""

from __future__ import annotations

import hashlib
import logging
import time
from collections.abc import Generator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

from .backends import DEFAULT_TIMEOUT_MS, GenerationBackend, request
from .contexts import (
    DEFAULT_CONTEXTS,
    DEFAULT_SAMPLING_TEMPERATURE,
    DEFAULT_SHOTS,
    greedy_context,
    sample_contexts,
)
from .document import ApiDocument
from .embeddings import EmbeddingProvider
from .enhance import DEFAULT_OVERLOAD_SUFFIX, EnhancementPlan, check_overload_paths, enhance_doc, enhance_fuzz
from .errors import (
    BackendRejected,
    BackendUnavailable,
    DimensionMismatch,
    GreedyMissing,
    InsufficientBank,
)
# one walk gives the parameters and where they sit; `bench/tracing.py` times it under this name
from .extract import located_parameters as extract_parameters
from .metrics import GenerationRecord
from .model import ApiParameter, ExampleValue, ParameterBank, write_json
from .postprocess import CandidatePool, ExampleSet, select_examples
from .prompts import GenerationRequest, RawGeneration, parse_generation
from .retrieval import build_index, build_query, exclude_self, score_all

log = logging.getLogger(__name__)

TRIVIAL_KINDS = frozenset({"boolean", "enum"})

DEFAULT_PARALLELISM = 4
DEFAULT_DIVERSE_TEMPERATURE = 0.5
# one day; a socket timeout overflows past threading.TIMEOUT_MAX seconds, which is far longer
MAX_TIMEOUT_MS = 86_400_000


@dataclass
class RunConfig:
    """Everything an enrichment run depends on, flags over env over file over defaults."""

    bank_path: str = ""
    mode: str = "doc"
    backend: str = "http"  # "http" | "replay"
    endpoint: str = ""
    api_key: str = ""
    timeout_ms: int = DEFAULT_TIMEOUT_MS
    replay_file: str = ""
    record_file: str = ""
    embedder: str = "trigram"  # "trigram" | "remote"
    embed_endpoint: str = ""
    seed: int = 0
    shots: int = DEFAULT_SHOTS
    contexts: int = DEFAULT_CONTEXTS
    diverse_temperature: float = DEFAULT_DIVERSE_TEMPERATURE
    context_temperature: float = DEFAULT_SAMPLING_TEMPERATURE
    parallelism: int = DEFAULT_PARALLELISM
    include_trivial: bool = False
    overload_suffix: str = DEFAULT_OVERLOAD_SUFFIX

    def __post_init__(self) -> None:
        if self.mode not in ("doc", "fuzz"):
            raise ValueError(f"bad mode: {self.mode!r}")
        if self.backend not in ("http", "replay"):
            raise ValueError(f"bad backend: {self.backend!r}")
        if self.embedder not in ("trigram", "remote"):
            raise ValueError(f"bad embedder: {self.embedder!r}")
        if self.shots < 1 or self.contexts < 1:
            raise ValueError("shots and contexts must be at least 1")
        if not 0.0 <= self.diverse_temperature <= 2.0:
            raise ValueError("diverse_temperature must be within [0, 2]")
        if not self.context_temperature >= 0.0:
            raise ValueError("context_temperature must be a number at least 0")
        if self.seed < 0 or self.seed >= 2**64:
            raise ValueError("seed must fit an unsigned 64-bit integer")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        if not 1 <= self.timeout_ms <= MAX_TIMEOUT_MS:
            raise ValueError(f"timeout_ms must be between 1 and {MAX_TIMEOUT_MS} (one day)")
        if not self.overload_suffix:
            raise ValueError("overload_suffix must not be empty")

    def snapshot(self) -> dict[str, Any]:
        """Manifest-safe view: secrets reduced to presence flags."""
        out: dict[str, Any] = {}
        for f in fields(self):
            if f.name == "api_key":
                out["api_key_set"] = bool(self.api_key)
            else:
                out[f.name] = getattr(self, f.name)
        return out


@dataclass(frozen=True)
class ParameterOutcome:
    api_name: str
    param_name: str
    source_pointer: str
    outcome: str


@dataclass
class RunManifest:
    config: dict[str, Any]
    bank_digest: str
    counts: dict[str, int]
    outcomes: list[ParameterOutcome]
    wall_time_ms: int | None


def write_manifest(manifest: RunManifest, path: str | Path) -> None:
    write_json(path, manifest)


@dataclass
class EnrichResult:
    document: ApiDocument
    records: list[GenerationRecord]
    manifest: RunManifest
    plan: EnhancementPlan


def derive_parameter_seed(seed: int, param: ApiParameter) -> int:
    """Stable per-parameter RNG seed, independent of scheduling order."""
    material = f"{seed}|{param.api_name}|{param.source_pointer}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def _trivial_example_set(param: ApiParameter) -> ExampleSet:
    if param.declared_type.kind == "boolean":
        texts = ["true", "false"]
    else:
        texts = list(param.declared_type.enum_values)[:3]
    values = tuple(ExampleValue.from_raw(t) for t in texts)
    return ExampleSet(examples=values, provenance=("copied",) * len(values))


# what a model call gives back: its generation, or the error it raised
Answer = RawGeneration | BackendUnavailable | BackendRejected


def _enrich_one(
    param: ApiParameter,
    bank: ParameterBank,
    index: Any,
    config: RunConfig,
    embedder: EmbeddingProvider,
) -> Generator[list[GenerationRequest], list[Answer], tuple[str, GenerationRecord]]:
    """One parameter's enrichment; returns its outcome and record.

    Yields each batch of model requests, first the greedy request, then one
    per diverse context, and is sent their answers in request order.
    """
    greedy_value: ExampleValue | None = None
    parsed: list[ExampleValue | None] = []

    def ended(outcome: str, final: ExampleSet | None = None) -> tuple[str, GenerationRecord]:
        """The outcome, and a record of the values generated before it."""
        record = GenerationRecord(parameter=param, greedy=greedy_value, diverse_raw=tuple(parsed), final=final)
        return outcome, record

    candidates = exclude_self(score_all(index, build_query(param)), bank, param)
    try:
        g_context = greedy_context(candidates, bank, param, shots=config.shots)
    except InsufficientBank:
        return ended("failed_insufficient_bank")

    (greedy_raw,) = yield [request(g_context, 0.0)]
    if isinstance(greedy_raw, Exception):
        log.warning("greedy call failed for %s: %s", param.param_name, greedy_raw)
        return ended("failed_backend")
    greedy_value = parse_generation(greedy_raw, param.declared_type.kind)
    if greedy_value is None:
        return ended("failed_greedy_missing")

    context_set = sample_contexts(
        candidates,
        bank,
        param,
        greedy_value,
        seed=derive_parameter_seed(config.seed, param),
        contexts=config.contexts,
        shots=config.shots,
        temperature=config.context_temperature,
    )
    raw_batch = yield [request(ctx, config.diverse_temperature) for ctx in context_set.contexts]
    for j, raw in enumerate(raw_batch):
        if isinstance(raw, Exception):
            log.warning("diverse call failed: %s", raw)
            raw_batch[j] = RawGeneration(text="")  # an empty slot
    parsed = [parse_generation(raw, param.declared_type.kind) for raw in raw_batch]
    if not any(raw.text for raw in raw_batch):
        # every call ran and none produced text
        return ended("failed_backend")

    pool = CandidatePool(
        greedy=greedy_value,
        diverse=tuple(v for v in parsed if v is not None),
        target_type=param.declared_type,
    )
    try:
        final = select_examples(pool, embedder)
    except GreedyMissing:
        return ended("failed_greedy_missing")
    except (BackendUnavailable, BackendRejected, DimensionMismatch) as exc:
        log.warning("embedding failed for %s: %s", param.param_name, exc)
        return ended("failed_embedding")
    return ended("enriched", final)


def enrich_document(
    doc: ApiDocument,
    bank: ParameterBank,
    config: RunConfig,
    backend: GenerationBackend,
    embedder: EmbeddingProvider,
    api_name: str | None = None,
) -> EnrichResult:
    """Run the full enrichment over one document.

    Trivial boolean/enum parameters are skipped (or copied through under
    include_trivial); every other parameter goes through retrieval, greedy and
    diverse generation, and selection. Accounting holds: enriched + skipped +
    failed equals the number of extracted parameters.
    """
    started = time.monotonic()
    located = extract_parameters(doc, api_name=api_name)
    params = [param for param, _path, _method in located]
    if config.mode == "fuzz":
        # every path that can get an assignment, checked before the calls a collision would waste
        assignable = [path for param, path, _method in located if config.include_trivial or param.declared_type.kind not in TRIVIAL_KINDS]
        check_overload_paths(doc, assignable, config.overload_suffix)
    index = build_index(bank)

    def answer(req: GenerationRequest) -> Answer:
        try:
            return backend.complete(req)
        except (BackendUnavailable, BackendRejected) as exc:
            return exc

    def work(param: ApiParameter) -> tuple[str, GenerationRecord | None, ExampleSet | None]:
        if param.declared_type.kind not in TRIVIAL_KINDS:
            enrichment = _enrich_one(param, bank, index, config, embedder)
            answers = None
            try:
                while True:  # every model call is made here: each batch answered in order, on this worker
                    answers = [answer(req) for req in enrichment.send(answers)]
            except StopIteration as done:
                outcome, record = done.value
            return outcome, record, record.final
        if config.include_trivial:
            return "enriched_copied", None, _trivial_example_set(param)
        return "skipped_trivial", None, None

    # The only concurrency: parameters run in parallel, each making its calls in
    # order. A deterministic backend gets one worker, which takes parameters in
    # submission order, so replay queues are consumed the same way every run.
    workers = 1 if backend.is_deterministic else config.parallelism
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(work, params))

    # Every outcome starts with the count it adds to: enriched, skipped or failed.
    counts = {"extracted": len(params), "enriched": 0, "skipped": 0, "failed": 0}
    for outcome, _, _ in results:
        counts[outcome.partition("_")[0]] += 1
    outcomes = [
        ParameterOutcome(param.api_name, param.param_name, param.source_pointer, outcome)
        for param, (outcome, _, _) in zip(params, results)
    ]
    records = [record for _, record, _ in results if record is not None]
    assignments = {param.source_pointer: final for param, (_, _, final) in zip(params, results) if final is not None}

    plan = EnhancementPlan.of(located, assignments)
    enhanced = enhance_fuzz(doc, plan, config.overload_suffix) if config.mode == "fuzz" else enhance_doc(doc, plan)

    wall_ms = None if backend.is_deterministic else int((time.monotonic() - started) * 1000)
    manifest = RunManifest(
        config=config.snapshot(),
        bank_digest=bank.source_digest,
        counts=counts,
        outcomes=outcomes,
        wall_time_ms=wall_ms,
    )
    return EnrichResult(document=enhanced, records=records, manifest=manifest, plan=plan)
