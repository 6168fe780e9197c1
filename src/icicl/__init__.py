"""In-context learning example generation for OpenAPI parameter docs.

The library mines example-bearing parameters from a spec corpus, retrieves
similar ones for a target parameter, prompts a completion model with few-shot
contexts, and re-encodes the winners into the spec for documentation or
fuzzing consumers.
"""

from .backends import HttpBackend, RecordingBackend, ReplayBackend, generate_diverse, generate_greedy
from .bank import load_bank, mine_bank, save_bank
from .contexts import ContextSet, PromptContext, Shot, greedy_context, sample_contexts
from .document import ApiDocument, parse_document
from .embeddings import EmbeddingVector, RemoteEmbedder, TrigramEmbedder, cosine
from .enhance import EnhancementPlan, enhance_doc, enhance_fuzz
from .errors import (
    BackendRejected,
    BackendUnavailable,
    CorruptBank,
    DimensionMismatch,
    EmptyCorpus,
    GreedyMissing,
    IciclError,
    InsufficientBank,
    MalformedLabels,
    PathCollision,
    PointerMiss,
    SpecSyntaxError,
    UnsupportedVersion,
)
from .extract import extract_parameters, located_parameters
from .metrics import (
    GenerationRecord,
    IntrinsicReport,
    build_report,
    ingest_labels,
    read_records,
    write_records,
)
from .model import ApiParameter, ExampleValue, ParameterBank, SchemaType
from .pipeline import EnrichResult, RunConfig, RunManifest, enrich_document
from .postprocess import CandidatePool, ExampleSet, select_examples, type_check
from .prompts import parse_generation, render_prompt
from .retrieval import build_index, build_query, exclude_self, score_all, tokenize, top_k

__version__ = "0.1.0"

__all__ = [
    "ApiDocument",
    "ApiParameter",
    "BackendRejected",
    "BackendUnavailable",
    "CandidatePool",
    "ContextSet",
    "CorruptBank",
    "DimensionMismatch",
    "EmbeddingVector",
    "EmptyCorpus",
    "EnhancementPlan",
    "EnrichResult",
    "ExampleSet",
    "ExampleValue",
    "GenerationRecord",
    "GreedyMissing",
    "HttpBackend",
    "IciclError",
    "InsufficientBank",
    "IntrinsicReport",
    "MalformedLabels",
    "ParameterBank",
    "PathCollision",
    "PointerMiss",
    "PromptContext",
    "RecordingBackend",
    "RemoteEmbedder",
    "ReplayBackend",
    "RunConfig",
    "RunManifest",
    "SchemaType",
    "Shot",
    "SpecSyntaxError",
    "TrigramEmbedder",
    "UnsupportedVersion",
    "build_index",
    "build_query",
    "build_report",
    "cosine",
    "enhance_doc",
    "enhance_fuzz",
    "enrich_document",
    "exclude_self",
    "extract_parameters",
    "generate_diverse",
    "generate_greedy",
    "greedy_context",
    "ingest_labels",
    "load_bank",
    "located_parameters",
    "mine_bank",
    "parse_document",
    "parse_generation",
    "read_records",
    "render_prompt",
    "sample_contexts",
    "save_bank",
    "score_all",
    "select_examples",
    "tokenize",
    "top_k",
    "type_check",
    "write_records",
]
