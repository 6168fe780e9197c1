"""Embedding providers and cosine similarity."""

import contextlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icicl.embeddings import EmbeddingVector, RemoteEmbedder, TrigramEmbedder, cosine
from icicl.errors import BackendRejected, BackendUnavailable, DimensionMismatch

from support import DEEP_JSON, EmbedServer, local_server


@contextlib.contextmanager
def canned_server(status, *bodies):
    """HTTP server answering the i-th POST with bodies[i], and later ones with the last body."""
    queue = list(bodies)

    def respond(headers, payload):
        return status, json.dumps(queue.pop(0) if len(queue) > 1 else queue[0])

    with local_server(respond) as server:
        yield server.endpoint


class TestCosine:
    def test_equal_vectors_exactly_one(self):
        v = EmbeddingVector(components=(0.6, 0.8))
        assert cosine(v, v) == 1.0
        # even when float dot would land below 1
        w = EmbeddingVector(components=(1 / math.sqrt(3),) * 3)
        assert cosine(w, EmbeddingVector(components=w.components)) == 1.0

    def test_orthogonal_is_zero(self):
        a = EmbeddingVector(components=(1.0, 0.0))
        b = EmbeddingVector(components=(0.0, 1.0))
        assert cosine(a, b) == 0.0

    def test_clamped_to_unit_interval(self):
        a = EmbeddingVector(components=(1.0 + 1e-9, 0.0))
        assert cosine(a, EmbeddingVector(components=(1.0, 0.0))) == 1.0
        neg = EmbeddingVector(components=(-1.0 - 1e-9, 0.0))
        assert cosine(neg, EmbeddingVector(components=(1.0, 0.0))) == -1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine(EmbeddingVector(components=(1.0,)), EmbeddingVector(components=(1.0, 0.0)))


class TestTrigram:
    def test_deterministic_and_unit_norm(self):
        emb = TrigramEmbedder()
        a, b = emb.embed(["currency", "currency"])
        assert a == b
        norm = math.sqrt(sum(c * c for c in a.components))
        assert abs(norm - 1.0) < 1e-12
        assert a.dimension == 256
        assert emb.provider_id == "trigram-256"

    def test_short_text_hashes_whole(self):
        emb = TrigramEmbedder()
        vec = emb.embed_one("ab")
        # a single gram lands in a single bucket
        assert sorted(vec.components, reverse=True)[0] == 1.0
        assert sum(1 for c in vec.components if c) == 1

    def test_case_sensitive(self):
        emb = TrigramEmbedder()
        assert emb.embed_one("USD") != emb.embed_one("usd")

    def test_shared_trigrams_beat_disjoint(self):
        emb = TrigramEmbedder()
        usd, usda, zar = emb.embed(["USD", "USDA", "ZAR"])
        assert cosine(usd, usda) > cosine(usd, zar)

    @settings(max_examples=40, deadline=None)
    @given(st.text(min_size=1, max_size=30))
    def test_every_embedding_is_unit_length(self, text):
        vec = TrigramEmbedder().embed_one(text)
        norm = math.sqrt(sum(c * c for c in vec.components))
        assert abs(norm - 1.0) < 1e-9
        assert cosine(vec, vec) == 1.0


class TestRemote:
    def test_vectors_renormalized_and_dimension_learned(self):
        table = {"USD": [3.0, 4.0, 0.0], "EUR": [0.0, 5.0, 0.0]}
        with EmbedServer(table) as server:
            emb = RemoteEmbedder(endpoint=server.endpoint)
            usd, eur = emb.embed(["USD", "EUR"])
        assert usd.components == pytest.approx((0.6, 0.8, 0.0))
        assert eur.components == pytest.approx((0.0, 1.0, 0.0))
        assert usd.dimension == eur.dimension == 3

    def test_empty_batch_is_local(self):
        emb = RemoteEmbedder(endpoint="http://127.0.0.1:1/unused")
        assert emb.embed([]) == []

    def test_count_mismatch_raises(self):
        with canned_server(200, {"vectors": [[1.0, 0.0]]}) as endpoint:
            with pytest.raises(DimensionMismatch):
                RemoteEmbedder(endpoint=endpoint).embed(["a", "b"])

    def test_ragged_response_raises(self):
        table = {"a": [1.0, 0.0], "b": [1.0, 0.0, 0.0]}
        with EmbedServer(table) as server:
            with pytest.raises(DimensionMismatch):
                RemoteEmbedder(endpoint=server.endpoint).embed(["a", "b"])

    def test_unreachable_raises_unavailable(self):
        emb = RemoteEmbedder(endpoint="http://127.0.0.1:1/never", timeout_s=0.5)
        with pytest.raises(BackendUnavailable):
            emb.embed(["x"])

    def test_non_2xx_raises_rejected(self):
        with canned_server(503, {"error": "down"}) as endpoint:
            with pytest.raises(BackendRejected):
                RemoteEmbedder(endpoint=endpoint).embed(["x"])

    def test_deeply_nested_answer_rejected(self):
        with local_server(lambda headers, payload: (200, DEEP_JSON)) as server:
            with pytest.raises(BackendRejected, match="malformed embedding response"):
                RemoteEmbedder(endpoint=server.endpoint).embed(["x"])

    def test_missing_vectors_key_rejected(self):
        bodies = [
            {"embeddings": []},
            [1, 2],
            {"vectors": "a"},
            {"vectors": [[0.0, 0.0]]},
            {"vectors": [[1e308, 1e308]]},  # the norm overflows to inf
            {"vectors": [[]]},
            {"vectors": [["a"]]},
            {"vectors": [None]},
            {"vectors": [[True, False]]},
            {"vectors": [[10**400]]},
        ]
        with canned_server(200, *bodies) as endpoint:
            emb = RemoteEmbedder(endpoint=endpoint)
            for _body in bodies:
                with pytest.raises(BackendRejected):
                    emb.embed(["x"])
