#!/usr/bin/env python3
"""Benchmark icicl's `enrich` flow end to end on seeded synthetic workloads.

Run from the repository root; icicl is imported from ./src:

    python3 bench/run.py --workload large_bank --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload runs in its own subprocess, so its peak RSS is its own. The
inputs are generated here from the seed and the program sees only the files.
`--trace 0` prints the end-to-end metrics; `--trace 1` runs once untraced and
once traced and prints per-layer metrics, writing the spans to
.bench_runs/<workload>-seed<n>.spans.jsonl. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
RUNS = ROOT / ".bench_runs"
CHILD_TIMEOUT_S = 160.0  # input generation comes first; a run must end within 180 s


def _require_source() -> None:
    if not (ROOT / "src" / "icicl" / "__init__.py").is_file():
        sys.exit(f"no icicl sources under {ROOT / 'src'}; run from the repository root")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


class StubProcess:
    """The HTTP stub in a child process, reachable before timing starts."""

    def __init__(self, latency_ms: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--latency-ms", str(latency_ms)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = self.proc.stdout.readline() if self.proc.stdout else ""
            if not line.startswith("PORT "):
                raise RuntimeError(f"stub did not start: {line!r}")
            self.url = f"http://127.0.0.1:{int(line.split()[1])}/"
            with urllib.request.urlopen(self.url + "health", timeout=10) as resp:
                resp.read()
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import gen
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    RUNS.mkdir(exist_ok=True)
    workdir = RUNS / f"{name}-seed{seed}-{os.getpid()}"
    stub = None
    try:
        gen.write_corpus(workdir / "corpus", seed, workload.corpus, workload.words)
        (workdir / "target.json").write_bytes(gen.target_spec(seed, workload.target, workload.words))
        cmd = [
            sys.executable, str(HERE / "run.py"), "--child", "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(traced)), "--workdir", str(workdir),
        ]
        if workload.latency_ms is not None:
            stub = StubProcess(workload.latency_ms)
            cmd += ["--endpoint", stub.url]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    finally:
        if stub is not None:
            stub.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    if child.returncode != 0:
        raise RuntimeError(f"{name}: workload process exited with {child.returncode}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark icicl on seeded synthetic workloads.")
    parser.add_argument("--workload", default="all", help="large_bank, http_latency, corpus_fuzz or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0, help="how long the measured cycles run (at least three)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--endpoint", help=argparse.SUPPRESS)
    args = parser.parse_args()
    _require_source()

    from workloads import WORKLOADS, child_main

    if args.child:
        spans = RUNS / f"{args.workload}-seed{args.seed}.spans.jsonl"
        return child_main(args.workload, args.workdir, args.seed, args.seconds, bool(args.trace),
                          args.endpoint, spans)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    results = {}
    for name in names:
        started = time.perf_counter()
        results[name] = result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for metric, m in result["metrics"].items():
            print(f"{name:<13} {metric:<40} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:<13} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} ({time.perf_counter() - started:.1f} s)")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
