"""Backend behavior: replay queues, recording, retries."""

import json
import socket
import threading
import time
from types import SimpleNamespace

import pytest

from icicl.backends import (
    MAX_BODY_BYTES,
    RETRIES,
    HttpBackend,
    RecordingBackend,
    ReplayBackend,
    prompt_digest,
)
from icicl.embeddings import RemoteEmbedder
from icicl.errors import BackendRejected, BackendUnavailable
from icicl.prompts import GenerationRequest

from support import DEEP_JSON, local_server


def write_replay(tmp_path, responses, default=""):
    path = tmp_path / "replay.json"
    path.write_text(json.dumps({"default": default, "responses": responses}), encoding="utf-8")
    return path


def req(prompt, temperature=0.5):
    return GenerationRequest(prompt=prompt, temperature=temperature)


class TestReplay:
    def test_queue_consumed_in_call_order(self, tmp_path):
        digest = prompt_digest("p")
        path = write_replay(tmp_path, {digest: ['"a"', '"b"']}, default="fallback")
        backend = ReplayBackend(path)
        assert backend.complete(req("p")).text == '"a"'
        assert backend.complete(req("p")).text == '"b"'
        assert backend.complete(req("p")).text == "fallback"  # exhausted

    def test_unknown_prompt_gets_default(self, tmp_path):
        backend = ReplayBackend(write_replay(tmp_path, {}, default="dflt"))
        assert backend.complete(req("never seen")).text == "dflt"

    def test_distinct_prompts_have_independent_cursors(self, tmp_path):
        path = write_replay(
            tmp_path, {prompt_digest("a"): ["1"], prompt_digest("b"): ["2", "3"]}
        )
        backend = ReplayBackend(path)
        assert backend.complete(req("b")).text == "2"
        assert backend.complete(req("a")).text == "1"
        assert backend.complete(req("b")).text == "3"

    def test_flags(self, tmp_path):
        backend = ReplayBackend(write_replay(tmp_path, {}))
        assert backend.is_deterministic is True


class _ScriptedBackend:
    """Test double returning queued texts, optionally raising."""

    is_deterministic = True

    def __init__(self, texts):
        self.texts = list(texts)
        self.calls = []

    def complete(self, request):
        self.calls.append(request.prompt)
        item = self.texts.pop(0)
        if isinstance(item, Exception):
            raise item
        from icicl.prompts import RawGeneration

        return RawGeneration(text=item, backend_id="scripted")


class TestRecording:
    def test_roundtrip_through_replay(self, tmp_path):
        inner = _ScriptedBackend(['"x"', '"y"', '"z"'])
        out = tmp_path / "rec.json"
        rec = RecordingBackend(inner, out)
        rec.complete(req("p1"))
        rec.complete(req("p1"))
        rec.complete(req("p2"))
        rec.flush()

        replay = ReplayBackend(out)
        assert replay.complete(req("p1")).text == '"x"'
        assert replay.complete(req("p1")).text == '"y"'
        assert replay.complete(req("p2")).text == '"z"'
        assert replay.complete(req("p3")).text == ""

    def test_flush_is_sorted_and_atomic(self, tmp_path):
        inner = _ScriptedBackend(["1", "2"])
        out = tmp_path / "rec.json"
        rec = RecordingBackend(inner, out)
        rec.complete(req("zz"))
        rec.complete(req("aa"))
        rec.flush()
        body = out.read_text(encoding="utf-8")
        data = json.loads(body)
        keys = list(data["responses"])
        assert keys == sorted(keys)
        assert not (tmp_path / "rec.json.tmp").exists()

    def test_inherits_determinism_flag(self, tmp_path):
        inner = _ScriptedBackend([])
        rec = RecordingBackend(inner, tmp_path / "r.json")
        assert rec.is_deterministic is True


def scripted_server(keep_alive):
    """(handler, endpoint): POSTs get handler.script's (status, body) or (status, body, headers)
    in turn, then 200 {"text": "ok"}.

    handler.seen collects each request's (headers, payload).
    """
    handler = SimpleNamespace(script=[], seen=[])

    def respond(headers, payload):
        handler.seen.append((dict(headers), payload))
        status, body, *headers = handler.script.pop(0) if handler.script else (200, {"text": "ok"})
        return status, json.dumps(body) if isinstance(body, dict) else body, *headers

    with local_server(respond, keep_alive=keep_alive) as server:
        yield handler, server.endpoint


@pytest.fixture()
def http_script():
    yield from scripted_server(keep_alive=False)


class TestHttpBackend:
    def test_success_payload_and_text(self, http_script):
        handler, endpoint = http_script
        handler.script.append((200, {"text": "hello"}))
        backend = HttpBackend(endpoint)
        result = backend.complete(req("the prompt", temperature=0.25))
        assert result.text == "hello"
        assert result.backend_id == "http"

        headers, payload = handler.seen[0]
        assert payload == {
            "prompt": "the prompt",
            "temperature": 0.25,
            "max_tokens": 64,
            "stop": ["\n"],
        }
        assert "authorization" not in {k.lower() for k in headers}

    def test_api_key_sent_as_bearer(self, http_script):
        handler, endpoint = http_script
        handler.script.append((200, {"text": "x"}))
        HttpBackend(endpoint, api_key="sekrit").complete(req("p"))
        headers, _ = handler.seen[0]
        lowered = {k.lower(): v for k, v in headers.items()}
        assert lowered.get("authorization") == "Bearer sekrit"

    def test_non_2xx_rejected_without_retry(self, http_script):
        handler, endpoint = http_script
        handler.script.append((503, {"error": "down"}))
        backend = HttpBackend(endpoint)
        with pytest.raises(BackendRejected) as exc_info:
            backend.complete(req("p"))
        assert exc_info.value.status == 503
        assert len(handler.seen) == 1  # a rejection is not retried

    def test_429_waits_for_its_retry_after(self, http_script):
        handler, endpoint = http_script
        handler.script.append((429, {"error": "slow down"}, {"Retry-After": "0"}))
        backend = HttpBackend(endpoint, retry_base_ms=5000)
        started = time.monotonic()
        assert backend.complete(req("p")).text == "ok"
        assert time.monotonic() - started < 2  # not the 5 s backoff
        assert len(handler.seen) == 2

    @pytest.mark.parametrize(
        "headers", [{}, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}, {"Retry-After": "0.1"}],
        ids=["no-header", "http-date", "not-delay-seconds"],
    )
    def test_429_without_delay_seconds_waits_the_backoff(self, http_script, headers):
        handler, endpoint = http_script
        handler.script.append((429, {"error": "slow down"}, headers))
        backend = HttpBackend(endpoint, retry_base_ms=300)
        started = time.monotonic()
        assert backend.complete(req("p")).text == "ok"
        assert time.monotonic() - started >= 0.3
        assert len(handler.seen) == 2

    def test_429_retry_after_is_capped_at_the_call_timeout(self, http_script):
        handler, endpoint = http_script
        handler.script.append((429, {"error": "slow down"}, {"Retry-After": "3600"}))
        backend = HttpBackend(endpoint, timeout_ms=200, retry_base_ms=5000)
        started = time.monotonic()
        assert backend.complete(req("p")).text == "ok"
        assert time.monotonic() - started < 2
        assert len(handler.seen) == 2

    def test_429_every_attempt_is_rejected_with_429(self, http_script, caplog):
        handler, endpoint = http_script
        handler.script.extend([(429, {"error": "slow down"}, {"Retry-After": "0"})] * (RETRIES + 2))
        with pytest.raises(BackendRejected) as exc_info:
            HttpBackend(endpoint).complete(req("p"))
        assert exc_info.value.status == 429
        assert len(handler.seen) == RETRIES + 1 == 3
        assert len([r for r in caplog.records if "rate limited" in r.getMessage()]) == 3

    def test_malformed_body_rejected(self, http_script):
        handler, endpoint = http_script
        handler.script.append((200, "not json"))
        with pytest.raises(BackendRejected):
            HttpBackend(endpoint).complete(req("p"))

    def test_missing_text_key_rejected(self, http_script):
        handler, endpoint = http_script
        # dicts go out as JSON, strings as raw JSON text
        bodies = [
            {"output": "x"},
            "[1, 2]",
            {"text": None},
            {"text": 5},
            {"text": ["a"]},
            '"text"',
            "null",
            '{"text": "\\ud800x"}',  # a lone surrogate cannot be written as UTF-8
            DEEP_JSON,
        ]
        handler.script.extend((200, body) for body in bodies)
        backend = HttpBackend(endpoint)
        for body in bodies:
            with pytest.raises(BackendRejected):
                backend.complete(req("p"))
        assert len(handler.seen) == len(bodies)  # a malformed answer is not retried

    def test_transport_error_exhausts_retries(self):
        # nothing listens on this port; three attempts then unavailable
        backend = HttpBackend("http://127.0.0.1:1/never", timeout_ms=200, retry_base_ms=1)
        with pytest.raises(BackendUnavailable) as exc_info:
            backend.complete(req("p"))
        assert "3 attempts" in str(exc_info.value)

    def test_flags(self):
        backend = HttpBackend("http://example.invalid")
        assert backend.is_deterministic is False


@pytest.mark.parametrize(
    "url", ["http://local host/", "http://h/v1 complete", "http://h/v1/é", "http://a\x01b/"],
    ids=["space-in-host", "space-in-path", "non-ascii", "control-character"],
)
def test_url_http_client_cannot_send_is_refused_before_any_call(url):
    with pytest.raises(ValueError, match="printable ASCII without spaces"):
        HttpBackend(url)


@pytest.mark.parametrize("key", ["abc\r", "a\nb", "a b", "κλειδί"], ids=["CR", "LF", "space", "non-ASCII"])
def test_api_key_http_cannot_send_is_refused_before_any_call(key):
    with pytest.raises(ValueError, match="api_key must be printable ASCII without spaces"):
        HttpBackend("http://127.0.0.1:1/never", api_key=key)


class TestHttpBackendKeepAlive(TestHttpBackend):
    """The same cases against an HTTP/1.1 server that keeps each connection open."""

    @pytest.fixture()
    def http_script(self):
        yield from scripted_server(keep_alive=True)


# An answer both services take as well-formed.
WELL_FORMED = json.dumps({"text": "ok", "vectors": [[1.0]]})


def completion_calls(endpoint):
    backend = HttpBackend(endpoint)
    return lambda: backend.complete(req("p"))


def embedding_calls(endpoint):
    embedder = RemoteEmbedder(endpoint)
    return lambda: embedder.embed(["x"])


@pytest.mark.parametrize("calls", [completion_calls, embedding_calls])
class TestConnections:
    def test_idle_connection_closed_by_server_is_redialed(self, calls, caplog):
        with local_server(lambda headers, payload: (200, WELL_FORMED), keep_alive=True, idle_timeout_s=0.02) as server:
            call = calls(server.endpoint)
            for _ in range(3):
                call()
                time.sleep(0.15)  # the server closes the idle connection meanwhile
        assert len(server.peers) == 3  # one request per call
        assert not [r for r in caplog.records if "transport error" in r.getMessage()]  # and no retry

    def test_one_connection_per_thread(self, calls):
        with local_server(lambda headers, payload: (200, WELL_FORMED), keep_alive=True) as server:
            call = calls(server.endpoint)
            done = []
            threads = [threading.Thread(target=lambda: done.extend(call() for _ in range(20))) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
        assert len(done) == len(server.peers) == 40
        assert len(set(server.peers)) <= 2

    def test_body_over_cap_rejected_once_then_next_call_succeeds(self, calls, caplog):
        answers = ["x" * (MAX_BODY_BYTES + 65536), WELL_FORMED]  # more than a read buffer is left unread
        with local_server(lambda headers, payload: (200, answers.pop(0)), keep_alive=True) as server:
            call = calls(server.endpoint)
            with pytest.raises(BackendRejected, match=f"over {MAX_BODY_BYTES} bytes"):
                call()
            assert len(server.peers) == 1  # a malformed answer is not retried
            call()
        assert len(server.peers) == 2
        assert not [r for r in caplog.records if "transport error" in r.getMessage()]


def test_embedder_rejects_429_without_retry():
    with local_server(lambda headers, payload: (429, "{}", {"Retry-After": "0"})) as server:
        with pytest.raises(BackendRejected) as exc_info:
            RemoteEmbedder(server.endpoint).embed(["x"])
    assert exc_info.value.status == 429
    assert len(server.peers) == 1


def test_tls_failure_fails_after_one_attempt(caplog):
    # a plain-HTTP server answers the TLS hello with no TLS record, on every attempt
    with local_server(lambda headers, payload: (200, WELL_FORMED)) as server:
        backend = HttpBackend(server.endpoint.replace("http://", "https://", 1), timeout_ms=2000, retry_base_ms=2000)
        started = time.monotonic()
        with pytest.raises(BackendUnavailable, match="TLS failed: SSLError: .*WRONG_VERSION_NUMBER"):
            backend.complete(req("p"))
    assert time.monotonic() - started < 2  # no backoff
    assert len([r for r in caplog.records if "transport error" in r.getMessage()]) == 1


def _close_after_hello(listener, connections):
    for _ in range(connections):
        conn = listener.accept()[0]
        with conn:
            # read the whole ClientHello record: closing with it unread may send a reset, not an EOF
            header = conn.recv(5, socket.MSG_WAITALL)
            conn.recv(int.from_bytes(header[3:5], "big"), socket.MSG_WAITALL)


def test_connection_closed_mid_handshake_is_retried(caplog):
    with socket.create_server(("127.0.0.1", 0)) as listener:
        closer = threading.Thread(target=_close_after_hello, args=(listener, RETRIES + 1))
        closer.start()
        backend = HttpBackend(f"https://127.0.0.1:{listener.getsockname()[1]}/", timeout_ms=2000, retry_base_ms=1)
        with pytest.raises(BackendUnavailable, match=f"after {RETRIES + 1} attempts: SSLEOFError"):
            backend.complete(req("p"))
        closer.join(timeout=5)
        assert not closer.is_alive()
    assert len([r for r in caplog.records if "transport error" in r.getMessage()]) == RETRIES + 1
