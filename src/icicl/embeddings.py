"""Example-text embeddings: a deterministic local default plus a remote provider."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Protocol, Sequence

from .backends import JsonClient
from .errors import BackendRejected, BackendUnavailable, DimensionMismatch

TRIGRAM_DIMENSION = 256


@dataclass(frozen=True)
class EmbeddingVector:
    components: tuple[float, ...]

    @property
    def dimension(self) -> int:
        return len(self.components)


def _normalize(values: Sequence[float]) -> tuple[float, ...]:
    norm = math.sqrt(sum(v * v for v in values))
    if not 0.0 < norm < math.inf:
        raise ValueError("cannot normalize a zero or non-finite vector")
    return tuple(v / norm for v in values)


def cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Dot product of unit vectors, clamped to [-1, 1]; equal vectors are exactly 1."""
    if a.dimension != b.dimension:
        raise DimensionMismatch(f"{a.dimension} vs {b.dimension}")
    if a.components == b.components:
        return 1.0
    dot = sum(x * y for x, y in zip(a.components, b.components))
    return max(-1.0, min(1.0, dot))


def _is_numeric_list(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)


class EmbeddingProvider(Protocol):
    provider_id: str

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]: ...


class TrigramEmbedder:
    """Hashed character-trigram term frequencies, L2-normalized.

    Fully deterministic and offline: each trigram is bucketed by its sha256
    into a fixed 256-dimensional space. Texts shorter than three characters
    hash as a single gram.
    """

    provider_id = f"trigram-{TRIGRAM_DIMENSION}"

    def _bucket(self, gram: str) -> int:
        digest = hashlib.sha256(gram.encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big") % TRIGRAM_DIMENSION

    def embed_one(self, text: str) -> EmbeddingVector:
        grams = [text[i : i + 3] for i in range(len(text) - 2)] if len(text) >= 3 else [text]
        counts = [0.0] * TRIGRAM_DIMENSION
        for gram in grams:
            counts[self._bucket(gram)] += 1.0
        return EmbeddingVector(components=_normalize(counts))

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        return [self.embed_one(t) for t in texts]


class RemoteEmbedder:
    """POST {texts: [...]} -> {vectors: [[...]]} against a configured endpoint.

    Responses are re-normalized client-side so downstream cosine math can rely
    on unit vectors; ragged responses raise DimensionMismatch, and any other
    malformed 2xx answer BackendRejected.
    """

    provider_id = "remote"

    def __init__(self, endpoint: str, timeout_s: float = 30.0):
        self._client = JsonClient(endpoint, timeout_s, "malformed embedding response")

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        if not texts:
            return []
        try:
            status, body = self._client.post({"texts": list(texts)})
        except BackendUnavailable as exc:
            raise BackendUnavailable(f"embedding endpoint unreachable: {exc}") from exc
        vectors = body.get("vectors") if isinstance(body, dict) else None
        if not isinstance(vectors, list) or not all(_is_numeric_list(vec) for vec in vectors):
            raise BackendRejected(status, 'malformed embedding response: no "vectors" list of number lists')
        if len(vectors) != len(texts):
            raise DimensionMismatch(f"asked for {len(texts)} vectors, got {len(vectors)}")
        try:
            out = [EmbeddingVector(components=_normalize([float(x) for x in vec])) for vec in vectors]
        except (ValueError, OverflowError) as exc:
            raise BackendRejected(status, f"malformed embedding response: {exc}") from exc
        width = out[0].dimension
        for vec in out:
            if vec.dimension != width:
                raise DimensionMismatch(f"ragged response: {vec.dimension} vs {width}")
        return out
