"""Completion backends: live HTTP, deterministic replay, and recording.

The wire protocol is a single POST of {prompt, temperature, max_tokens, stop}
answered by {text}. Replay fixtures key responses by sha256 of the UTF-8
prompt bytes so identical prompts consume a response list in call order.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
from pathlib import Path
from typing import Protocol

import requests

from .contexts import ContextSet, PromptContext
from .errors import AllCallsFailed, BackendRejected, BackendUnavailable
from .model import write_atomic
from .prompts import GenerationRequest, RawGeneration, render_prompt

log = logging.getLogger(__name__)

ENV_ENDPOINT = "ICICL_LLM_ENDPOINT"
ENV_API_KEY = "ICICL_LLM_API_KEY"
ENV_TIMEOUT_MS = "ICICL_LLM_TIMEOUT_MS"

DEFAULT_TIMEOUT_MS = 30000
DEFAULT_DIVERSE_TEMPERATURE = 0.5

RETRIES = 2
RETRY_BASE_MS = 250


def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class GenerationBackend(Protocol):
    is_deterministic: bool

    def complete(self, request: GenerationRequest) -> RawGeneration: ...


class HttpBackend:
    """Completion endpoint client with bounded retries on transport errors."""

    is_deterministic = False

    def __init__(
        self,
        endpoint: str,
        api_key: str | None = None,
        timeout_ms: int = DEFAULT_TIMEOUT_MS,
        retry_base_ms: int = RETRY_BASE_MS,
    ):
        self.endpoint = endpoint
        self.api_key = api_key
        self.timeout_s = timeout_ms / 1000.0
        self.retry_base_s = retry_base_ms / 1000.0
        self._session = requests.Session()

    def complete(self, request: GenerationRequest) -> RawGeneration:
        payload = {
            "prompt": request.prompt,
            "temperature": request.temperature,
            "max_tokens": request.max_new_tokens,
            "stop": list(request.stop_sequences),
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        last_exc: Exception | None = None
        started = time.monotonic()
        for attempt in range(RETRIES + 1):
            if attempt:
                time.sleep(self.retry_base_s * (2 ** (attempt - 1)))
            try:
                resp = self._session.post(
                    self.endpoint, json=payload, headers=headers, timeout=self.timeout_s
                )
            except requests.RequestException as exc:
                last_exc = exc
                log.warning("transport error (attempt %d/%d): %s", attempt + 1, RETRIES + 1, exc)
                continue
            if not 200 <= resp.status_code < 300:
                raise BackendRejected(resp.status_code, resp.text)
            try:
                body = resp.json()
                elapsed = int((time.monotonic() - started) * 1000)
                return RawGeneration(text=str(body["text"]), backend_id="http", latency_ms=elapsed)
            except (ValueError, KeyError) as exc:
                raise BackendRejected(resp.status_code, f"malformed response body: {exc}") from exc
        raise BackendUnavailable(f"endpoint unreachable after {RETRIES + 1} attempts: {last_exc}")


class ReplayBackend:
    """Deterministic backend driven by a recorded fixture file."""

    is_deterministic = True

    def __init__(self, fixture_path: str | Path):
        data = json.loads(Path(fixture_path).read_text(encoding="utf-8"))
        self._responses: dict[str, list[str]] = {
            k: list(v) for k, v in data.get("responses", {}).items()
        }
        self._default: str = data.get("default", "")
        self._cursor: dict[str, int] = {}
        self._lock = threading.Lock()

    def complete(self, request: GenerationRequest) -> RawGeneration:
        key = prompt_digest(request.prompt)
        with self._lock:
            queue = self._responses.get(key)
            if queue is None:
                return RawGeneration(text=self._default, backend_id="replay")
            pos = self._cursor.get(key, 0)
            if pos >= len(queue):
                return RawGeneration(text=self._default, backend_id="replay")
            self._cursor[key] = pos + 1
            return RawGeneration(text=queue[pos], backend_id="replay")


class RecordingBackend:
    """Wraps a live backend and captures a replayable fixture."""

    def __init__(self, inner: GenerationBackend, out_path: str | Path, default: str = ""):
        self.inner = inner
        self.is_deterministic = inner.is_deterministic
        self.out_path = Path(out_path)
        self.default = default
        self._responses: dict[str, list[str]] = {}
        self._lock = threading.Lock()

    def complete(self, request: GenerationRequest) -> RawGeneration:
        result = self.inner.complete(request)
        with self._lock:
            self._responses.setdefault(prompt_digest(request.prompt), []).append(result.text)
        return result

    def flush(self) -> None:
        payload = {"default": self.default, "responses": self._responses}
        write_atomic(self.out_path, json.dumps(payload, indent=2, ensure_ascii=False, sort_keys=True) + "\n")


def generate_greedy(backend: GenerationBackend, context: PromptContext) -> RawGeneration:
    """One completion at temperature 0."""
    return backend.complete(GenerationRequest(prompt=render_prompt(context), temperature=0.0))


def generate_diverse(
    backend: GenerationBackend,
    context_set: ContextSet,
    temperature: float = DEFAULT_DIVERSE_TEMPERATURE,
) -> list[RawGeneration]:
    """One completion per context, called in context order.

    Individual failures degrade to empty generations; only a fully failed batch
    raises AllCallsFailed. Calls run one after another, so replayed response
    queues are consumed in context order; concurrency comes from running
    several parameters at once.
    """

    def call(ctx: PromptContext) -> RawGeneration:
        try:
            return backend.complete(GenerationRequest(prompt=render_prompt(ctx), temperature=temperature))
        except (BackendUnavailable, BackendRejected) as exc:
            log.warning("diverse call failed: %s", exc)
            return RawGeneration(text="")

    results = [call(ctx) for ctx in context_set.contexts]
    if results and all(not r.text for r in results):
        raise AllCallsFailed("every diverse generation call failed or returned empty text")
    return results
