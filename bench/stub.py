"""Stub completion backends: one in-process, one a local HTTP server.

Both answer with the same pure function of (prompt, temperature), so a run's
outputs depend only on its inputs. Run as a script to serve HTTP:

    python3 bench/stub.py --latency-ms 20

It binds 127.0.0.1 on a free port, prints `PORT <n>` on stdout and serves until
it is terminated. `POST /` answers a completion after the fixed latency,
`GET /health` answers at once, and `GET /stats` returns (and clears) how long
each completion took to serve, in ms.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import statistics
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

# The run fails when the median client-observed latency exceeds the median
# served latency by more than this; a Nagle/delayed-ACK stall adds ~40 ms.
OVERHEAD_BOUND_MS = 10.0

# Of the sampled (temperature > 0) answers, this share fails the type check.
WRONG_TYPE_EVERY = 10
# Sampled answers repeat over this many distinct values per parameter.
DISTINCT_VALUES = 4

_TARGET_RE = re.compile(r"# must generate a unique (\S+) (\w+)\nexample_\d+ = \Z")


def _value(kind: str, name: str, pick: int) -> str:
    if kind == "integer":
        return str(100 + 7 * pick)
    if kind == "number":
        return f"{pick}.5"
    if kind == "datetime":
        return f'"2024-0{pick + 1}-15T10:00:00Z"'
    if kind == "array":
        return f'["{name}", "v{pick}"]'
    return f'"{name}-{pick}"'


def _wrong_value(kind: str) -> str:
    return "12345" if kind == "string" else '"not-a-value"'


def stub_answer(prompt: str, temperature: float) -> str:
    """A typed value for the prompt's target parameter.

    The greedy answer (temperature 0) always has the declared type. A sampled
    answer is one of DISTINCT_VALUES values, so values repeat, and one in
    WRONG_TYPE_EVERY fails the type check.
    """
    match = _TARGET_RE.search(prompt)
    name, kind = match.groups() if match else ("value", "string")
    if temperature <= 0.0:
        return _value(kind, name, 0)
    digest = hashlib.sha256(f"{temperature!r}|{prompt}".encode("utf-8")).digest()
    h = int.from_bytes(digest[:8], "big")
    if h % WRONG_TYPE_EVERY == 0:
        return _wrong_value(kind)
    return _value(kind, name, (h // WRONG_TYPE_EVERY) % DISTINCT_VALUES)


class StubBackend:
    """Zero-latency in-process backend, non-deterministic by declaration.

    `is_deterministic = False` sends the pipeline down the threaded path that
    the http backend takes.
    """

    is_deterministic = False

    def __init__(self) -> None:
        self._served_ms: list[float] = []
        self._lock = threading.Lock()

    def complete(self, request: Any) -> Any:
        from icicl.prompts import RawGeneration  # the HTTP server runs without icicl on its path

        started = time.perf_counter()
        text = stub_answer(request.prompt, request.temperature)
        with self._lock:
            self._served_ms.append((time.perf_counter() - started) * 1000.0)
        return RawGeneration(text=text, backend_id="stub")

    def drain_served_ms(self) -> list[float]:
        with self._lock:
            served, self._served_ms = self._served_ms, []
        return served


def time_calls(backend: Any, calls: int) -> list[float]:
    """Client-observed latency of `calls` sampled completions, in ms."""
    from icicl.prompts import GenerationRequest

    client = []
    for i in range(calls):
        started = time.perf_counter()
        backend.complete(GenerationRequest(prompt=f"probe {i}", temperature=0.5))
        client.append((time.perf_counter() - started) * 1000.0)
    return client


def overhead_ms(client_ms: list[float], served_ms: list[float]) -> float:
    """Median latency the client saw minus median latency the stub served."""
    return statistics.median(client_ms) - statistics.median(served_ms)


def check_overhead(client_ms: list[float], served_ms: list[float]) -> str | None:
    """A violation message when the client sees more delay than the stub adds."""
    over = overhead_ms(client_ms, served_ms)
    if over > OVERHEAD_BOUND_MS:
        return f"median call overhead {over:.1f} ms exceeds {OVERHEAD_BOUND_MS} ms"
    return None


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: "StubServer"

    def respond(self, payload: bytes) -> None:
        # Status line, headers and body in one send: split sends stall on
        # Nagle's algorithm against the client's delayed ACK.
        head = (
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + payload)

    def do_POST(self) -> None:
        started = time.perf_counter()
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        time.sleep(self.server.latency_s)
        text = stub_answer(body["prompt"], float(body["temperature"]))
        self.respond(json.dumps({"text": text}).encode("utf-8"))
        self.server.record((time.perf_counter() - started) * 1000.0)

    def do_GET(self) -> None:
        if self.path == "/stats":
            self.respond(json.dumps({"served_ms": self.server.drain()}).encode("utf-8"))
        else:
            self.respond(b"{}")

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002 - stdlib signature
        pass


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, latency_ms: float, handler: type[BaseHTTPRequestHandler] = StubHandler):
        super().__init__(("127.0.0.1", 0), handler)
        self.latency_s = latency_ms / 1000.0
        self._served_ms: list[float] = []
        self._lock = threading.Lock()

    def record(self, ms: float) -> None:
        with self._lock:
            self._served_ms.append(ms)

    def drain(self) -> list[float]:
        with self._lock:
            served, self._served_ms = self._served_ms, []
        return served


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--latency-ms", type=float, required=True)
    args = parser.parse_args()
    server = StubServer(args.latency_ms)
    print(f"PORT {server.server_address[1]}", flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
