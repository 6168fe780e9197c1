"""Completion backends: live HTTP, deterministic replay, and recording.

The wire protocol is a single POST of {prompt, temperature, max_tokens, stop}
answered by {text}. Replay fixtures key responses by sha256 of the UTF-8
prompt bytes so identical prompts consume a response list in call order.
"""

from __future__ import annotations

import functools
import hashlib
import http.client
import json
import logging
import re
import select
import ssl
import threading
import time
from pathlib import Path
from typing import Any, Protocol
from urllib.parse import urlsplit, urlunsplit

from .contexts import PromptContext
from .errors import BackendRejected, BackendUnavailable
from .model import write_json
from .prompts import MAX_NEW_TOKENS, STOP_SEQUENCES, GenerationRequest, RawGeneration, render_prompt

log = logging.getLogger(__name__)

DEFAULT_TIMEOUT_MS = 30000

RETRIES = 2
RETRY_BASE_MS = 250

MAX_BODY_BYTES = 8 << 20  # a larger 2xx body is malformed, from either service

# A connection closed mid-handshake may not close again; any other TLS error,
# such as a certificate that fails verification, fails every attempt alike
_TRANSIENT_TLS_ERRORS = (ssl.SSLEOFError, ssl.SSLZeroReturnError)

# JSON escapes can carry lone surrogates, which no UTF-8 artifact can hold
_SURROGATES = re.compile("[\ud800-\udfff]")


def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class _Held:
    """A thread's connection, closed when the thread ends or the client is dropped."""

    def __init__(self, conn: http.client.HTTPConnection):
        self.conn = conn

    def __del__(self) -> None:
        self.conn.close()


class JsonClient:
    """POSTs JSON to one http(s) URL over one keep-alive connection per thread."""

    def __init__(self, url: str, timeout_s: float, malformed: str, headers: dict[str, str] | None = None):
        parts = urlsplit(url)
        # http.client sends printable ASCII without spaces, and nothing else
        if parts.scheme not in ("http", "https") or not parts.hostname or not re.fullmatch("[!-~]+", url):
            raise ValueError(f"{url!r} is not an http:// or https:// URL with a host, in printable ASCII without spaces")
        tls = {"context": ssl.create_default_context()} if parts.scheme == "https" else {}
        connection = http.client.HTTPSConnection if tls else http.client.HTTPConnection
        # a URL it cannot dial is a ValueError before any call; parts.port raises it for a bad port
        self._dial = functools.partial(connection, parts.hostname, parts.port, timeout=timeout_s, **tls)
        self._path = urlunsplit(("", "", parts.path or "/", parts.query, ""))
        self._headers = {"Content-Type": "application/json", **(headers or {})}
        self._malformed = malformed  # leads the text of a malformed 2xx answer's BackendRejected
        self._local = threading.local()

    def post(self, payload: Any) -> tuple[int, Any]:
        """(status, decoded body) of a 2xx JSON answer; BackendUnavailable or BackendRejected otherwise."""
        if not hasattr(self._local, "held"):
            self._local.held = _Held(self._dial())
        conn = self._local.held.conn
        # an idle connection reads as ready only when the server has closed it
        if conn.sock is not None and select.select([conn.sock], [], [], 0)[0]:
            conn.close()
        try:
            conn.request("POST", self._path, json.dumps(payload).encode("utf-8"), self._headers)
            with conn.getresponse() as resp:
                status, data = resp.status, resp.read(MAX_BODY_BYTES + 1)
                retry_after = resp.getheader("Retry-After")
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise BackendUnavailable(f"{type(exc).__name__}: {exc}") from exc
        if not 200 <= status < 300 or len(data) > MAX_BODY_BYTES:
            conn.close()  # the response may not have been read to its end
            if not 200 <= status < 300:
                raise BackendRejected(status, data.decode("utf-8", "replace"), retry_after)
            raise BackendRejected(status, f"{self._malformed}: body over {MAX_BODY_BYTES} bytes")
        try:
            return status, json.loads(data)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise BackendRejected(status, f"{self._malformed}: {exc}") from exc


class GenerationBackend(Protocol):
    is_deterministic: bool

    def complete(self, request: GenerationRequest) -> RawGeneration: ...


class BadApiKey(ValueError):
    """An API key that an HTTP Authorization header cannot carry."""


class HttpBackend:
    """Completion endpoint client with bounded retries on transport errors and 429s."""

    is_deterministic = False

    def __init__(
        self,
        endpoint: str,
        api_key: str | None = None,
        timeout_ms: int = DEFAULT_TIMEOUT_MS,
        retry_base_ms: int = RETRY_BASE_MS,
    ):
        # RFC 6750 bearer tokens are printable ASCII; http.client cannot send CR, LF or non-Latin-1 text
        if api_key and not re.fullmatch("[!-~]+", api_key):
            raise BadApiKey("api_key must be printable ASCII without spaces, as a bearer token is")
        headers = {"Authorization": f"Bearer {api_key}"} if api_key else {}
        self.timeout_s = timeout_ms / 1000.0
        self._client = JsonClient(endpoint, self.timeout_s, "malformed response body", headers)
        self.retry_base_s = retry_base_ms / 1000.0

    def complete(self, request: GenerationRequest) -> RawGeneration:
        payload = {
            "prompt": request.prompt,
            "temperature": request.temperature,
            "max_tokens": MAX_NEW_TOKENS,
            "stop": list(STOP_SEQUENCES),
        }
        last_exc: Exception | None = None
        wait_s: float | None = None  # what the last 429 asked to wait, when it said
        started = time.monotonic()
        for attempt in range(RETRIES + 1):
            if attempt:
                time.sleep(self.retry_base_s * (2 ** (attempt - 1)) if wait_s is None else wait_s)
            wait_s = None
            try:
                status, body = self._client.post(payload)
            except BackendUnavailable as exc:
                last_exc = exc
                log.warning("transport error (attempt %d/%d): %s", attempt + 1, RETRIES + 1, exc)
                if isinstance(exc.__cause__, ssl.SSLError) and not isinstance(exc.__cause__, _TRANSIENT_TLS_ERRORS):
                    raise BackendUnavailable(f"endpoint unreachable, TLS failed: {exc}") from exc
                continue
            except BackendRejected as exc:
                if exc.status != 429:
                    raise
                last_exc = exc
                log.warning("rate limited (attempt %d/%d): %s", attempt + 1, RETRIES + 1, exc)
                # delay-seconds only (RFC 9110); an HTTP-date or anything else takes the backoff
                if exc.retry_after is not None and re.fullmatch("[0-9]+", exc.retry_after.strip()):
                    wait_s = min(float(exc.retry_after), self.timeout_s)
                continue
            text = body.get("text") if isinstance(body, dict) else None
            if not isinstance(text, str) or _SURROGATES.search(text):
                raise BackendRejected(status, 'malformed response body: no "text" string of valid Unicode')
            elapsed = int((time.monotonic() - started) * 1000)
            return RawGeneration(text=text, backend_id="http", latency_ms=elapsed)
        if isinstance(last_exc, BackendRejected):
            raise last_exc
        raise BackendUnavailable(f"endpoint unreachable after {RETRIES + 1} attempts: {last_exc}")


class ReplayBackend:
    """Deterministic backend driven by a recorded fixture file."""

    is_deterministic = True

    def __init__(self, fixture_path: str | Path):
        try:
            data = json.loads(Path(fixture_path).read_text(encoding="utf-8"))
        except RecursionError as exc:
            raise ValueError("replay file is nested too deeply") from exc
        if not isinstance(data, dict):
            raise ValueError("replay file must hold a JSON object")
        responses = data.get("responses", {})
        if not isinstance(responses, dict) or not all(
            isinstance(queue, list) and all(isinstance(text, str) for text in queue) for queue in responses.values()
        ):
            raise ValueError('replay file "responses" must map each digest to a list of strings')
        self._responses: dict[str, list[str]] = responses
        self._default = data.get("default", "")
        if not isinstance(self._default, str):
            raise ValueError('replay file "default" must be a string')
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

    def __init__(self, inner: GenerationBackend, out_path: str | Path):
        self.inner = inner
        self.is_deterministic = inner.is_deterministic
        self.out_path = Path(out_path)
        self._responses: dict[str, list[str]] = {}
        self._lock = threading.Lock()

    def complete(self, request: GenerationRequest) -> RawGeneration:
        result = self.inner.complete(request)
        with self._lock:
            self._responses.setdefault(prompt_digest(request.prompt), []).append(result.text)
        return result

    def flush(self) -> None:
        write_json(self.out_path, {"default": "", "responses": dict(sorted(self._responses.items()))})


def request(context: PromptContext, temperature: float) -> GenerationRequest:
    """The completion request for one prompt context."""
    return GenerationRequest(prompt=render_prompt(context), temperature=temperature)
