"""Seeded synthetic inputs: a spec corpus to mine and a target spec to enrich.

No spec corpus of realistic size ships with the repository, so every input is
generated. Content words come from one fixed vocabulary (the same for every
seed) under a Zipf-like law, P(rank r) proportional to 1 / r**exponent. Common
API words are mixed in at fixed rates: words in descriptions, a verb in front
of operation ids, a suffix on parameter names. A WordProfile holds the
exponent and the rates. The common words and the exponent decide how many bank
entries share a term with a query, so they set `retrieval.touched_share`.
The seed picks the words, types, example values and spec layout; the same
seed always gives byte-identical files.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Container, Iterator

import yaml

VOCAB_SIZE = 5000

_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

_CONSONANTS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"


def _build_vocabulary() -> list[str]:
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    words = ["".join(p) for p in itertools.product(syllables, repeat=2)]
    words += ["".join(p) for p in itertools.product(syllables[:24], repeat=3)]
    random.Random("icicl-bench-vocabulary").shuffle(words)
    return words[:VOCAB_SIZE]


VOCABULARY = _build_vocabulary()


@dataclass(frozen=True)
class WordProfile:
    """How words are drawn. Each table pairs a common word with the share of
    descriptions (first 50 characters), operation ids or parameter names that
    carry it. Description words are drawn independently; an operation id gets
    at most one verb and a name at most one suffix."""

    zipf_exponent: float
    description_words: tuple[tuple[str, float], ...]
    operation_verbs: tuple[tuple[str, float], ...]
    name_suffixes: tuple[tuple[str, float], ...]


# Rates counted in the 40 parameters of the 10 specs in tests/fixtures/corpus
# (`python3 bench/fixture_words.py` recounts them). The exponent is fitted so
# that a generated bank's median touched share (0.26-0.33 on two seeds) is
# close to the 0.28 of those 40 parameters indexed against each other; see
# bench/README.md.
FIXTURE_WORDS = WordProfile(
    zipf_exponent=0.6,
    description_words=(("the", 0.225), ("to", 0.15), ("of", 0.125), ("for", 0.1), ("in", 0.075),
                       ("name", 0.075), ("id", 0.075), ("by", 0.05)),
    operation_verbs=(("list", 0.275), ("search", 0.2), ("get", 0.175), ("create", 0.125), ("locate", 0.1),
                     ("delete", 0.05), ("refund", 0.05)),
    name_suffixes=(("id", 0.15),),
)

# A stress setting taken from no corpus: common words at high rates and a
# steep law, so nearly every entry shares a term with nearly every query
# (touched share about 0.9). It gives the dense case beside FIXTURE_WORDS.
DENSE_WORDS = WordProfile(
    zipf_exponent=1.05,
    description_words=(("the", 0.5), ("of", 0.35), ("by", 0.2)),
    operation_verbs=(("get", 0.45),),
    name_suffixes=(("id", 0.15), ("name", 0.085)),
)


@functools.lru_cache(maxsize=None)
def _cum_weights(exponent: float) -> list[float]:
    return list(itertools.accumulate(1.0 / (r**exponent) for r in range(1, VOCAB_SIZE + 1)))


@dataclass(frozen=True)
class CorpusShape:
    """How a synthetic corpus is laid out; the workloads name one each."""

    specs: int
    operations: int  # per spec
    params: int  # per operation
    kinds: tuple[str, ...]  # parameter kinds, drawn uniformly
    example_share: float  # share of parameters that carry an example
    body_share: float  # share of operations whose parameters are body fields
    formats: tuple[str, ...]  # "json" and/or "yaml", drawn uniformly
    flavors: tuple[str, ...]  # "openapi" and/or "swagger", drawn uniformly


@dataclass(frozen=True)
class TargetShape:
    """The spec to enrich: how many parameters of each kind, and where."""

    operations: int
    kinds: tuple[str, ...]  # one entry per parameter, dealt round-robin over operations
    body_kinds: tuple[str, ...] = ()  # request-body fields of one more (POST) operation


class _Words:
    """Draws words, names, descriptions and operation ids under one profile."""

    def __init__(self, rng: random.Random, profile: WordProfile):
        self.rng = rng
        self.profile = profile
        self.cum_weights = _cum_weights(profile.zipf_exponent)

    def words(self, k: int) -> list[str]:
        return self.rng.choices(VOCABULARY, cum_weights=self.cum_weights, k=k)

    def _one_of(self, table: tuple[tuple[str, float], ...]) -> str | None:
        u = self.rng.random()
        for word, share in table:
            if u < share:
                return word
            u -= share
        return None

    def param_name(self) -> str:
        words = self.words(self.rng.randint(1, 2))
        suffix = self._one_of(self.profile.name_suffixes)
        return _camel(words + [suffix] if suffix else words)

    def description(self) -> str:
        words = self.words(self.rng.randint(3, 8))
        for common, share in self.profile.description_words:
            if self.rng.random() < share:
                words.insert(self.rng.randint(0, min(len(words), 4)), common)  # within the first 50 characters
        return " ".join(words).capitalize()

    def operation_id(self) -> str:
        words = self.words(self.rng.randint(1, 2))
        verb = self._one_of(self.profile.operation_verbs)
        return _camel([verb] + words if verb else words)


def _camel(words: list[str]) -> str:
    return words[0] + "".join(w.capitalize() for w in words[1:])


def _unique(name: str, taken: Container[str]) -> str:
    n = 2
    unique = name
    while unique in taken:
        unique = f"{name}{n}"
        n += 1
    return unique


def _example(w: _Words, kind: str, enum_values: list[str]) -> Any:
    rng = w.rng
    if kind == "string":
        return "-".join(w.words(rng.randint(1, 2)))
    if kind == "integer":
        return rng.randint(1, 10 ** rng.randint(1, 6))
    if kind == "number":
        return round(rng.uniform(0, 1000), 2)
    if kind == "datetime":
        return "%04d-%02d-%02dT%02d:%02d:%02dZ" % (
            rng.randint(2000, 2030), rng.randint(1, 12), rng.randint(1, 28),
            rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 59),
        )
    if kind == "boolean":
        return rng.random() < 0.5
    if kind == "enum":
        return rng.choice(enum_values)
    if kind == "array":
        return w.words(rng.randint(1, 3))
    raise ValueError(f"no generator for kind {kind!r}")


def _schema(w: _Words, kind: str) -> tuple[dict[str, Any], list[str]]:
    enum_values: list[str] = []
    if kind == "datetime":
        schema: dict[str, Any] = {"type": "string", "format": "date-time"}
    elif kind == "enum":
        enum_values = sorted(set(w.words(w.rng.randint(2, 5))))
        schema = {"type": "string", "enum": enum_values}
    elif kind == "array":
        schema = {"type": "array", "items": {"type": "string"}}
    else:
        schema = {"type": kind}
    return schema, enum_values


def _parameter(w: _Words, kind: str, flavor: str, with_example: bool) -> dict[str, Any]:
    schema, enum_values = _schema(w, kind)
    node: dict[str, Any] = {"name": w.param_name(), "in": "query", "description": w.description()}
    if flavor == "swagger":
        node.update(schema)
        if kind == "array":
            node["collectionFormat"] = "csv"
    else:
        node["schema"] = schema
    if with_example:
        node["example"] = _example(w, kind, enum_values)
    return node


def _body_schema(w: _Words, kinds: list[str], with_example: list[bool]) -> dict[str, Any]:
    properties: dict[str, Any] = {}
    for kind, keep in zip(kinds, with_example):
        schema, enum_values = _schema(w, kind)
        schema["description"] = w.description()
        if keep:
            schema["example"] = _example(w, kind, enum_values)
        properties[_unique(w.param_name(), properties)] = schema
    return {"type": "object", "properties": properties}


def _operation(
    w: _Words, kinds: list[str], flavor: str, with_example: list[bool], as_body: bool
) -> dict[str, Any]:
    op: dict[str, Any] = {"operationId": w.operation_id(), "summary": w.description()}
    if as_body and flavor == "openapi":
        op["requestBody"] = {
            "content": {"application/json": {"schema": _body_schema(w, kinds, with_example)}}
        }
    elif as_body:
        op["parameters"] = [{"name": "body", "in": "body", "schema": _body_schema(w, kinds, with_example)}]
    else:
        seen: set[str] = set()
        params = [_parameter(w, kind, flavor, keep) for kind, keep in zip(kinds, with_example)]
        for node in params:  # (name, in) must be unique per operation
            node["name"] = _unique(node["name"], seen)
            seen.add(node["name"])
        op["parameters"] = params
    op["responses"] = {"200": {"description": "OK"}}
    return op


def _spec_root(title: str, flavor: str, paths: dict[str, Any]) -> dict[str, Any]:
    head = {"openapi": "3.0.3"} if flavor == "openapi" else {"swagger": "2.0"}
    return {**head, "info": {"title": title, "version": "1.0.0"}, "paths": paths}


def serialize(root: dict[str, Any], fmt: str) -> bytes:
    if fmt == "json":
        return (json.dumps(root, ensure_ascii=False) + "\n").encode("utf-8")
    return yaml.dump(root, Dumper=_YAML_DUMPER, sort_keys=False, allow_unicode=True, width=100000).encode("utf-8")


def corpus_files(seed: int, shape: CorpusShape, profile: WordProfile) -> Iterator[tuple[str, bytes]]:
    """(file name, bytes) of every spec in the corpus, one spec at a time."""
    rng = random.Random(f"corpus|{seed}")
    w = _Words(rng, profile)
    for s in range(shape.specs):
        flavor = rng.choice(shape.flavors)
        fmt = rng.choice(shape.formats)
        title = f"{' '.join(w.words(2)).title()} Api {s}"
        paths: dict[str, Any] = {}
        for o in range(shape.operations):
            kinds = [rng.choice(shape.kinds) for _ in range(shape.params)]
            keep = [rng.random() < shape.example_share for _ in kinds]
            as_body = rng.random() < shape.body_share
            method = "post" if as_body else "get"
            paths[f"/{w.words(1)[0]}/r{o}"] = {method: _operation(w, kinds, flavor, keep, as_body)}
        yield f"spec_{s:04d}.{fmt}", serialize(_spec_root(title, flavor, paths), fmt)


def write_corpus(directory: Path, seed: int, shape: CorpusShape, profile: WordProfile) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, data in corpus_files(seed, shape, profile):
        (directory / name).write_bytes(data)


def target_spec(seed: int, shape: TargetShape, profile: WordProfile) -> bytes:
    """An OpenAPI 3 JSON spec whose parameters carry no examples."""
    w = _Words(random.Random(f"target|{seed}"), profile)
    ops: list[list[str]] = [[] for _ in range(shape.operations)]
    for i, kind in enumerate(shape.kinds):
        ops[i % shape.operations].append(kind)
    paths: dict[str, Any] = {}
    for o, kinds in enumerate(ops):
        paths[f"/{w.words(1)[0]}/t{o}"] = {"get": _operation(w, kinds, "openapi", [False] * len(kinds), False)}
    if shape.body_kinds:
        body_kinds = list(shape.body_kinds)
        paths["/submit"] = {"post": _operation(w, body_kinds, "openapi", [False] * len(body_kinds), True)}
    return serialize(_spec_root("Bench Target Service", "openapi", paths), "json")

