"""Spans recorded from outside icicl, by patching the names it calls.

A module that does `from .retrieval import score_all` looks the name up in its
own namespace, so each function is patched in the module that calls it
(`icicl.pipeline.score_all`, not `icicl.retrieval.score_all`). Backend and
embedder objects are wrapped instead. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import bisect
import importlib
import itertools
import json
import statistics
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

# (calling module, attribute, span name). Span names are the defining module
# and function, so one layer reads the same wherever it is called from.
PATCHES = (
    ("icicl.pipeline", "enrich_document", "pipeline.enrich_document"),
    ("icicl.pipeline", "write_manifest", "pipeline.write_manifest"),
    ("icicl.pipeline", "extract_parameters", "extract.extract_parameters"),
    ("icicl.pipeline", "build_index", "retrieval.build_index"),
    ("icicl.pipeline", "build_query", "retrieval.build_query"),
    ("icicl.pipeline", "score_all", "retrieval.score_all"),
    ("icicl.pipeline", "exclude_self", "retrieval.exclude_self"),
    ("icicl.pipeline", "greedy_context", "contexts.greedy_context"),
    ("icicl.pipeline", "sample_contexts", "contexts.sample_contexts"),
    ("icicl.pipeline", "parse_generation", "prompts.parse_generation"),
    ("icicl.pipeline", "select_examples", "postprocess.select_examples"),
    ("icicl.pipeline", "enhance_doc", "enhance.enhance_doc"),
    ("icicl.pipeline", "enhance_fuzz", "enhance.enhance_fuzz"),
    ("icicl.backends", "render_prompt", "prompts.render_prompt"),
    ("icicl.bank", "mine_bank", "bank.mine_bank"),
    ("icicl.bank", "save_bank", "bank.save_bank"),
    ("icicl.bank", "load_bank", "bank.load_bank"),
    ("icicl.bank", "parse_document", "document.parse_document"),
    ("icicl.bank", "extract_parameters", "extract.extract_parameters"),
    ("icicl.document", "parse_document", "document.parse_document"),
    ("icicl.document:ApiDocument", "serialize", "document.ApiDocument.serialize"),
    ("icicl.metrics", "write_records", "metrics.write_records"),
    ("icicl.metrics", "read_records", "metrics.read_records"),
    ("icicl.metrics", "build_report", "metrics.build_report"),
)
BACKEND_SPAN = "backends.complete"
EMBED_SPAN = "embeddings.embed"
ROOT_SPAN = "pipeline.enrich_document"

SPAN_NAMES = tuple(dict.fromkeys([name for _, _, name in PATCHES] + [BACKEND_SPAN, EMBED_SPAN]))


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    cpu_s: float
    parent: int | None
    thread: int
    source_pointer: str | None
    error: bool


def _resolve(target: str) -> Any:
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class _Proxy:
    """Forwards every attribute to `inner` except the methods given."""

    def __init__(self, inner: Any, **methods: Callable[..., Any]):
        self._inner = inner
        self.__dict__.update(methods)

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._inner, attr)


class Tracer:
    """Records a span around each patched call; `restore` undoes the patches.

    A span's parent is the innermost open span on its thread. A span opened on
    a thread with none open (a pool worker) is parented to the open
    `enrich_document` span. Spans of one parameter carry its source pointer,
    which the `build_query` wrapper sets for the thread.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.touched_shares: list[float] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            local = self._local
            stack = local.__dict__.setdefault("stack", [])
            if name == "retrieval.build_query":
                local.source_pointer = args[0].source_pointer
            with self._lock:
                span_id = next(self._ids)
            parent = stack[-1] if stack else self._root
            if name == ROOT_SPAN:
                self._root = span_id
            stack.append(span_id)
            error = True
            cpu0 = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu0
                stack.pop()
                if name == ROOT_SPAN:
                    self._root = None
                span = Span(span_id, name, start, end, cpu, parent, threading.get_ident(),
                            getattr(local, "source_pointer", None), error)
                with self._lock:
                    self.spans.append(span)
                if name == "retrieval.score_all" and not error and result:
                    self._count_touched(result)

        return traced

    def _count_touched(self, ranked: list[Any]) -> None:
        # score_all sorts by descending score, so the touched entries come first
        touched = bisect.bisect_left(ranked, 0.0, key=lambda c: -c.score)
        with self._lock:
            self.touched_shares.append(touched / len(ranked))

    def clear(self) -> None:
        """Forget the spans recorded so far."""
        with self._lock:
            self.spans.clear()
            self.touched_shares.clear()

    def install(self) -> None:
        for target, attr, name in PATCHES:
            owner = _resolve(target)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def wrap_backend(self, backend: Any) -> Any:
        return _Proxy(backend, complete=self.wrap(BACKEND_SPAN, backend.complete))

    def wrap_embedder(self, embedder: Any) -> Any:
        return _Proxy(embedder, embed=self.wrap(EMBED_SPAN, embedder.embed))

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(asdict(span)) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    reached = float("-inf")
    for start, end in sorted(intervals):
        if end > reached:
            total += end - max(start, reached)
            reached = end
    return total


def _within(spans: list[Span], root: Span, keep: Callable[[Span], bool]) -> float:
    """Time of `root` covered by the kept spans, counting overlaps once."""
    return _covered([(max(s.start, root.start), min(s.end, root.end))
                     for s in spans if keep(s) and s.start < root.end and s.end > root.start])


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """calls, wall_s, cpu_s and wait_s for every span name, zero when never called,
    plus how the enrich_document time divides between layers."""
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        mine = [s for s in tracer.spans if s.name == name]
        wall = sum(s.end - s.start for s in mine)
        cpu = sum(s.cpu_s for s in mine)
        out[f"{name}.calls"] = len(mine)
        out[f"{name}.wall_s"] = wall
        out[f"{name}.cpu_s"] = cpu
        out[f"{name}.wait_s"] = max(0.0, wall - cpu)

    spans = tracer.spans
    roots = [s for s in spans if s.name == ROOT_SPAN]
    root_wall = sum(r.end - r.start for r in roots)
    # self time: the root's duration minus the part its direct children cover
    out[f"{ROOT_SPAN}.self_s"] = root_wall - sum(_within(spans, r, lambda s, r=r: s.parent == r.id) for r in roots)
    for share, layers in (("retrieval_contexts_share", ("retrieval", "contexts")), ("backend_share", ("backends",))):
        covered = sum(_within(spans, r, lambda s: s.name.split(".")[0] in layers) for r in roots)
        out[f"{ROOT_SPAN}.{share}"] = covered / root_wall if root_wall else 0.0
    out["retrieval.touched_share"] = statistics.median(tracer.touched_shares) if tracer.touched_shares else 0.0
    return out


def unit_of(metric: str) -> str:
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith("_s"):
        return "s"
    return "ratio"


def call_latencies_ms(tracer: Tracer) -> tuple[list[float], int]:
    """Client-observed latency of each completion that returned, and the failed count."""
    calls = [s for s in tracer.spans if s.name == BACKEND_SPAN]
    ok = [(s.end - s.start) * 1000.0 for s in calls if not s.error]
    return ok, len(calls) - len(ok)
