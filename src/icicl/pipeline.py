"""End-to-end enrichment: extract, retrieve, prompt, select, re-encode."""

from __future__ import annotations

import hashlib
import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

from .backends import (
    DEFAULT_DIVERSE_TEMPERATURE,
    DEFAULT_TIMEOUT_MS,
    GenerationBackend,
    generate_diverse,
    generate_greedy,
)
from .contexts import (
    DEFAULT_CONTEXTS,
    DEFAULT_SAMPLING_TEMPERATURE,
    DEFAULT_SHOTS,
    greedy_context,
    sample_contexts,
)
from .document import ApiDocument
from .embeddings import EmbeddingProvider
from .enhance import DEFAULT_OVERLOAD_SUFFIX, EnhancementPlan, enhance_doc, enhance_fuzz
from .errors import (
    AllCallsFailed,
    BackendRejected,
    BackendUnavailable,
    DimensionMismatch,
    GreedyMissing,
    InsufficientBank,
)
from .extract import extract_parameters
from .metrics import GenerationRecord
from .model import ApiParameter, ExampleValue, ParameterBank, write_atomic
from .postprocess import CandidatePool, ExampleSet, select_examples
from .prompts import parse_generation
from .retrieval import build_index, build_query, exclude_self, score_all

log = logging.getLogger(__name__)

TRIVIAL_KINDS = frozenset({"boolean", "enum"})

DEFAULT_PARALLELISM = 4


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
        if self.seed < 0 or self.seed >= 2**64:
            raise ValueError("seed must fit an unsigned 64-bit integer")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        if self.timeout_ms < 1:
            raise ValueError("timeout_ms must be at least 1")
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


def load_config_file(path: str | Path) -> dict[str, str]:
    """key=value lines; '#' starts a comment, blank lines are ignored."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_no} is not key=value: {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip().strip('"')
    return values


@dataclass(frozen=True)
class ParameterOutcome:
    api_name: str
    param_name: str
    source_pointer: str
    outcome: str

    def to_dict(self) -> dict[str, str]:
        return {
            "api_name": self.api_name,
            "param_name": self.param_name,
            "source_pointer": self.source_pointer,
            "outcome": self.outcome,
        }


@dataclass
class RunManifest:
    config: dict[str, Any]
    bank_digest: str
    counts: dict[str, int]
    outcomes: list[ParameterOutcome]
    wall_time_ms: int | None

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": self.config,
            "bank_digest": self.bank_digest,
            "counts": self.counts,
            "outcomes": [o.to_dict() for o in self.outcomes],
            "wall_time_ms": self.wall_time_ms,
        }


def write_manifest(manifest: RunManifest, path: str | Path) -> None:
    write_atomic(path, json.dumps(manifest.to_dict(), indent=2, ensure_ascii=False) + "\n")


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


@dataclass
class _ParamResult:
    outcome: str
    record: GenerationRecord | None = None
    final: ExampleSet | None = None


def _enrich_one(
    param: ApiParameter,
    bank: ParameterBank,
    index: Any,
    config: RunConfig,
    backend: GenerationBackend,
    embedder: EmbeddingProvider,
) -> _ParamResult:
    def record_with(greedy=None, diverse=(), final=None) -> GenerationRecord:
        return GenerationRecord(parameter=param, greedy=greedy, diverse_raw=tuple(diverse), final=final)

    candidates = exclude_self(score_all(index, build_query(param)), bank, param)
    try:
        g_context = greedy_context(candidates, bank, param, shots=config.shots)
    except InsufficientBank:
        return _ParamResult("failed_insufficient_bank", record_with())

    try:
        greedy_raw = generate_greedy(backend, g_context)
    except (BackendUnavailable, BackendRejected) as exc:
        log.warning("greedy call failed for %s: %s", param.param_name, exc)
        return _ParamResult("failed_backend", record_with())
    greedy_value = parse_generation(greedy_raw, param.declared_type.kind)
    if greedy_value is None:
        return _ParamResult("failed_greedy_missing", record_with())

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
    try:
        raw_batch = generate_diverse(backend, context_set, temperature=config.diverse_temperature)
    except AllCallsFailed:
        # every call ran and none produced text
        return _ParamResult("failed_backend", record_with(greedy_value, [None] * len(context_set.contexts)))

    parsed = [parse_generation(raw, param.declared_type.kind) for raw in raw_batch]
    pool = CandidatePool(
        greedy=greedy_value,
        diverse=tuple(v for v in parsed if v is not None),
        target_type=param.declared_type,
    )
    try:
        final = select_examples(pool, embedder)
    except GreedyMissing:
        return _ParamResult("failed_greedy_missing", record_with(greedy=greedy_value, diverse=parsed))
    except (BackendUnavailable, BackendRejected, DimensionMismatch) as exc:
        log.warning("embedding failed for %s: %s", param.param_name, exc)
        return _ParamResult("failed_embedding", record_with(greedy=greedy_value, diverse=parsed))
    return _ParamResult(
        "enriched", record_with(greedy=greedy_value, diverse=parsed, final=final), final=final
    )


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
    params = extract_parameters(doc, api_name=api_name)
    index = build_index(bank)

    results: list[_ParamResult | None] = [None] * len(params)

    def work(i: int) -> None:
        param = params[i]
        if param.declared_type.kind in TRIVIAL_KINDS:
            if config.include_trivial:
                results[i] = _ParamResult("enriched_copied", final=_trivial_example_set(param))
            else:
                results[i] = _ParamResult("skipped_trivial")
            return
        results[i] = _enrich_one(param, bank, index, config, backend, embedder)

    # The only concurrency: parameters run in parallel, each making its calls in
    # order. A deterministic backend gets one worker, which takes parameters in
    # submission order, so replay queues are consumed the same way every run.
    workers = 1 if backend.is_deterministic else config.parallelism
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(work, range(len(params))))

    outcomes: list[ParameterOutcome] = []
    records: list[GenerationRecord] = []
    assignments: dict[str, ExampleSet] = {}
    counts = {"extracted": len(params), "enriched": 0, "skipped": 0, "failed": 0}
    for param, result in zip(params, results):
        assert result is not None
        outcomes.append(
            ParameterOutcome(
                api_name=param.api_name,
                param_name=param.param_name,
                source_pointer=param.source_pointer,
                outcome=result.outcome,
            )
        )
        if result.outcome.startswith("enriched"):
            counts["enriched"] += 1
        elif result.outcome == "skipped_trivial":
            counts["skipped"] += 1
        else:
            counts["failed"] += 1
        if result.record is not None:
            records.append(result.record)
        if result.final is not None:
            assignments[param.source_pointer] = result.final

    plan = EnhancementPlan(assignments=assignments)
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
