"""Shared test helpers: independent oracles, a structural validator, fixtures,
hypothesis strategies.

The oracle functions intentionally re-derive results from first principles
(no imports from the package internals beyond plain data types) so the tests
compare two unrelated implementations.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import random
import re
import struct
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import yaml
from hypothesis import strategies as st

from icicl.model import LOCATIONS, SCHEMA_KINDS, ApiParameter, ExampleValue, ParameterBank, SchemaType


# nested deeper than any JSON or YAML parser here can recurse
DEEP_JSON = "[" * 100_000 + "]" * 100_000


# ---------------------------------------------------------------------------
# builders

def make_param(
    param_name: str = "currency",
    description: str = "Search by ISO 4217 currency code",
    operation_id: str = "v2Currency",
    api_name: str = "rest-countries",
    kind: str = "string",
    enum_values: tuple[str, ...] = (),
    item_kind: SchemaType | None = None,
    location: str = "query",
    required: bool = False,
    examples: tuple[str, ...] = (),
    source_pointer: str = "/paths/~1x/get/parameters/0",
) -> ApiParameter:
    return ApiParameter(
        api_name=api_name,
        operation_id=operation_id,
        param_name=param_name,
        description=description,
        location=location,
        required=required,
        declared_type=SchemaType(kind=kind, enum_values=enum_values, item_kind=item_kind),
        existing_examples=tuple(ExampleValue.from_raw(e) for e in examples),
        source_pointer=source_pointer,
    )


def make_bank(*specs: tuple[str, str, str, str, str], digest: str = "f" * 64) -> ParameterBank:
    """Each spec is (api_name, param_name, description, operation_id, example)."""
    entries = [
        make_param(
            param_name=name,
            description=desc,
            operation_id=opid,
            api_name=api,
            examples=(example,),
            source_pointer=f"/paths/~1p{i}/get/parameters/0",
        )
        for i, (api, name, desc, opid, example) in enumerate(specs)
    ]
    return ParameterBank(entries=entries, source_digest=digest)


# hypothesis strategies for what a file holds

TEXTS = st.text(
    st.characters(blacklist_categories=("Cs",)) | st.sampled_from(["\u2028", "\u2029", "\x85", "é", "日", '"', "\n"]),
    max_size=6,
)
RAW_TEXTS = (st.sampled_from(['"USD"', "42", "-1.5", "true", "null", '[1, "a"]', '{"a": {}}']) | TEXTS).filter(
    str.strip
)
EXAMPLE_VALUES = st.builds(ExampleValue.from_raw, RAW_TEXTS)
SCHEMA_TYPES = st.recursive(
    st.sampled_from(sorted(SCHEMA_KINDS - {"enum", "array"})).map(SchemaType)
    | st.lists(TEXTS, min_size=1, max_size=3).map(lambda values: SchemaType("enum", tuple(values))),
    lambda items: items.map(lambda item: SchemaType("array", item_kind=item)),
    max_leaves=3,
)


def parameters(min_examples):
    return st.builds(
        ApiParameter,
        api_name=TEXTS,
        operation_id=TEXTS,
        param_name=TEXTS.filter(bool),
        description=TEXTS,
        location=st.sampled_from(sorted(LOCATIONS)),
        required=st.booleans(),
        declared_type=SCHEMA_TYPES,
        existing_examples=st.lists(EXAMPLE_VALUES, min_size=min_examples, max_size=4).map(tuple),
        source_pointer=TEXTS,
    )


# ---------------------------------------------------------------------------
# generated API descriptions: OpenAPI 3.0, OpenAPI 3.1 and Swagger 2.0 trees,
# written as JSON or YAML

# texts YAML 1.1 reads as other scalars, texts that look like numbers, a
# pointer's escapes, and what YAML 1.1 reads as line breaks
SPEC_TEXTS = st.sampled_from(
    ["id", "q", "on", "yes", "Off", "200", "1:30", "94103", "1.0", "0o17", "~", "a/b~c", "x\x85y", "p\u2028q", "r\u2029s", "", " "]
)
SPEC_VALUES = st.recursive(
    SPEC_TEXTS | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.booleans() | st.none(),
    lambda kids: st.lists(kids, max_size=2) | st.dictionaries(SPEC_TEXTS, kids, max_size=2),
    max_leaves=3,
)
# what a selected example can be: mining drops a blank text
ASSIGNED_VALUES = SPEC_VALUES.filter(lambda value: not isinstance(value, str) or value.strip())
_NAMES = st.sampled_from(["id", "q", "on", "200", "a/b~c", "p\u2028q"])  # few, so that (name, in) pairs meet
_MEDIA = ["application/json", "application/xml", "text/plain", "multipart/form-data"]
_FORMATS = ["date", "date-time", "uuid", "email", "ipv4", "ipv6", "uri", "zip"]
_CONSTRAINTS = ["minimum", "maximum", "exclusiveMinimum", "multipleOf", "minLength", "maxLength", "minItems", "uniqueItems"]


class SpecTextDumper(yaml.SafeDumper):
    """Writes a tree as one might for a YAML 1.2 reader: a string is quoted
    only where the core schema reads it as another scalar, so `on`, `yes` and
    `1:30` stay plain, and one holding U+0085, U+2028 or U+2029, which YAML 1.1
    writes as line breaks, is double-quoted."""

    def analyze_scalar(self, scalar):
        analysis = super().analyze_scalar(scalar)
        analysis.allow_single_quoted &= not any(char in scalar for char in "\x85\u2028\u2029")
        return analysis


SpecTextDumper.yaml_implicit_resolvers = {}
for _tag, _texts in (  # the YAML 1.2 core schema, YAML 1.2.2 section 10.3.2
    ("null", r"~|null|Null|NULL|"),
    ("bool", r"true|True|TRUE|false|False|FALSE"),
    ("int", r"[-+]?[0-9]+|0o[0-7]+|0x[0-9a-fA-F]+"),
    ("float", r"[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?|[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN)"),
):
    SpecTextDumper.add_implicit_resolver("tag:yaml.org,2002:" + _tag, re.compile(f"(?:{_texts})\\Z"), None)


@dataclass(frozen=True)
class GeneratedSpec:
    tree: dict
    text: str  # the tree as JSON, or as YAML with keys such as `200:` unquoted


def _refs(swagger: bool, kind: str) -> list[str]:
    """$refs of a kind ("schemas" or "parameters"): to a definition, dangling,
    external, cyclic, and to two texts."""
    home = ("#/definitions/" if kind == "schemas" else "#/parameters/") if swagger else f"#/components/{kind}/"
    first = "Pet" if kind == "schemas" else "Shared"
    return [home + first, home + "Missing", f"other.yaml{home}{first}", home + "Loop", "#/info/title", "#/info/version"]


def _schema(draw, swagger: bool, v31: bool, refs: bool, depth: int = 0) -> dict:
    """A schema: a $ref, or a typed, enum, array or object schema with
    constraint keywords and examples."""
    if refs and draw(st.integers(0, 2)) == 0:
        return {"$ref": draw(st.sampled_from(_refs(swagger, "schemas")))}
    kinds = ["string", "integer", "number", "boolean", "enum", "untyped", "array", "object"]
    kind = draw(st.sampled_from(kinds if depth < 2 else kinds[:6]))
    schema: dict = {}
    if kind == "enum":
        schema["enum"] = draw(st.lists(SPEC_VALUES, max_size=3))
    elif kind == "array":
        schema.update(type="array", items=_schema(draw, swagger, v31, refs, depth + 1))
    elif kind == "object":
        names = draw(st.lists(_NAMES, max_size=3, unique=True))
        schema.update(type="object", properties={name: _schema(draw, swagger, v31, refs, depth + 1) for name in names})
        schema["required"] = draw(st.lists(st.sampled_from(names), unique=True)) if names else []
    elif kind != "untyped":
        schema["type"] = [kind, "null"] if v31 and draw(st.booleans()) else kind
    if kind == "string" and draw(st.booleans()):
        schema["format"] = draw(st.sampled_from(_FORMATS))
    for keyword in draw(st.lists(st.sampled_from(_CONSTRAINTS), max_size=2, unique=True)):
        # exclusiveMinimum is a flag before 3.1
        flag = keyword == "uniqueItems" or (keyword == "exclusiveMinimum" and not v31)
        schema[keyword] = draw(st.booleans() if flag else st.integers(0, 10))
    if draw(st.booleans()):
        schema["example"] = draw(SPEC_VALUES)
    if v31 and draw(st.booleans()):
        schema["examples"] = draw(st.lists(SPEC_VALUES, max_size=2))
    return schema


def _parameter(draw, swagger: bool, v31: bool, refs: bool) -> dict:
    """A parameter object, a $ref to one, or now and then a malformed one."""
    if refs and draw(st.integers(0, 4)) == 0:
        return {"$ref": draw(st.sampled_from(_refs(swagger, "parameters")))}
    locations = ["query", "header", "path", "formData", "body"] if swagger else ["query", "header", "path", "cookie"]
    node = {"name": draw(_NAMES), "in": draw(st.sampled_from(locations + ["nowhere"]))}
    if draw(st.integers(0, 9)) == 0:
        del node["name"]
    if draw(st.booleans()):
        node["description"] = draw(SPEC_TEXTS)
    node["required"] = node["in"] == "path" or draw(st.booleans())
    if node["in"] == "body" and draw(st.integers(0, 2)):  # mostly an object of a few properties
        names = draw(st.lists(_NAMES, max_size=3, unique=True))
        node["schema"] = {"type": "object", "properties": {name: _schema(draw, swagger, v31, refs, 1) for name in names}}
    elif node["in"] == "body":
        node["schema"] = _schema(draw, swagger, v31, refs)
    elif swagger:  # the parameter is its own schema
        own = _schema(draw, swagger, v31, refs, depth=1)
        node.update((key, value) for key, value in own.items() if key not in ("$ref", "examples"))
    elif draw(st.integers(0, 3)):
        node["schema"] = _schema(draw, swagger, v31, refs)
    else:  # a schema that is no object
        node.update(schema=draw(st.sampled_from([None, "string", []])), type=draw(st.sampled_from(["string", "integer"])))
    if not swagger and draw(st.booleans()):
        names = draw(st.lists(SPEC_TEXTS, max_size=2, unique=True))
        node["examples"] = {name: {"value": draw(SPEC_VALUES)} for name in names}
    if draw(st.booleans()):
        node["example"] = draw(SPEC_VALUES)
    return node


def _components(draw, swagger: bool, v31: bool) -> dict:
    """What the $refs of `_refs` name: an object schema, a recursive array, a
    cyclic chain, and a parameter."""
    home = "#/definitions/" if swagger else "#/components/schemas/"
    schemas = {
        "Pet": _schema(draw, swagger, v31, True, depth=1),
        "Codes": {"type": "array", "items": {"$ref": home + "Codes"}},
        "Loop": {"$ref": home + "Loop"},
    }
    parameters = {"Shared": _parameter(draw, swagger, v31, False), "Loop": {"$ref": _refs(swagger, "parameters")[3]}}
    if swagger:
        return {"definitions": schemas, "parameters": parameters}
    bodies = {"Body": _request_body(draw, v31, True)}
    return {"components": {"schemas": schemas, "parameters": parameters, "requestBodies": bodies}}


def _request_body(draw, v31: bool, refs: bool) -> dict:
    """An OpenAPI 3 request body of one to three media types."""
    media = draw(st.lists(st.sampled_from(_MEDIA), min_size=1, max_size=3, unique=True))
    return {"content": {name: {"schema": _schema(draw, False, v31, refs)} for name in media}}


@st.composite
def api_documents(draw, refs: bool = True) -> GeneratedSpec:
    """An OpenAPI 3.0, OpenAPI 3.1 or Swagger 2.0 description, one in eight
    of another version, written as JSON or as YAML.

    It holds path-level parameters that operations inherit or override on
    (name, in); `formData` and `body` parameters; request bodies of several
    media types; 3.1 type lists; constraint keywords; schemas that are not
    objects; and texts such as `on`, `200`, `1:30`, `94103` and ones holding
    U+0085, U+2028 or U+2029. With `refs`, it also holds $refs to parameters
    and schemas, and dangling, external and cyclic ones, ones whose target is
    a text, and recursive array schemas; without, it holds no `$ref` at all.
    """
    version = draw(st.sampled_from(["2.0", "3.0.3", "3.1.0", "2.0", "3.0.3", "3.1.0", "3.1.0", "1.2"]))
    swagger, v31 = version in ("2.0", "1.2"), version == "3.1.0"
    tree: dict = {"swagger" if swagger else "openapi": version, "info": {"title": draw(SPEC_TEXTS), "version": "1"}}
    paths = {}
    for path in draw(st.lists(st.sampled_from(["/a", "/b/{id}", "/c~d", "/on"]), min_size=1, max_size=3, unique=True)):
        item: dict = {}
        if draw(st.booleans()):
            item["parameters"] = [_parameter(draw, swagger, v31, refs) for _ in range(draw(st.integers(1, 2)))]
        for method in draw(st.lists(st.sampled_from(["get", "post", "put"]), min_size=1, max_size=2, unique=True)):
            own = [_parameter(draw, swagger, v31, refs) for _ in range(draw(st.integers(0, 3)))]
            operation: dict = {"parameters": own}
            if draw(st.integers(0, 3)):
                operation["operationId"] = f"{method}{len(paths)}"
            if refs and not swagger and draw(st.integers(0, 7)) == 0:
                operation["requestBody"] = {"$ref": "#/components/requestBodies/Body"}
            elif not swagger and draw(st.booleans()):
                operation["requestBody"] = _request_body(draw, v31, refs)
            operation["responses"] = {"200": {"description": "ok"}}
            item[method] = operation
        paths[path] = item
    tree["paths"] = paths
    if refs:
        tree.update(_components(draw, swagger, v31))
    if draw(st.booleans()):
        return GeneratedSpec(tree, json.dumps(tree, ensure_ascii=False))
    text = yaml.dump(tree, Dumper=SpecTextDumper, sort_keys=False, allow_unicode=True, width=100000)
    return GeneratedSpec(tree, re.sub(r"'([0-9][0-9.]*)':", r"\1:", text))  # write `200:` as a person might


# A YAML spec that once aborted `mine` and `enrich`: a `required` list with
# members that are no property name.
REQUIRED_NOT_NAMES_SPEC = """\
openapi: 3.0.0
info: {title: Orders, version: '1'}
paths:
  /orders:
    get:
      operationId: listOrders
      parameters:
        - {name: limit, in: query, description: Most orders to list, example: 10, schema: {type: integer}}
    post:
      operationId: createOrder
      requestBody:
        content:
          application/json:
            schema:
              type: object
              required: [[note], {qty: 1}, qty, 7]
              properties:
                note: {type: string, description: A note for the courier, example: rush}
                qty: {type: integer, description: How many to order, example: 2}
"""


def unencodable_enum_tree() -> dict:
    """A spec tree whose enum members JSON cannot encode: a bytes and a set.

    YAML spec text can no longer hold them, since `!!binary` and `!!set` are
    refused, but a tree built in Python still can.
    """
    def param(name, description, example, schema):
        return {"name": name, "in": "query", "description": description, "example": example, "schema": schema}

    return {
        "openapi": "3.0.0",
        "info": {"title": "Modes", "version": "1"},
        "paths": {"/modes": {"get": {"operationId": "getModes", "parameters": [
            param("mode", "The mode", "b", {"type": "string", "enum": [b"hi", "b"]}),
            param("tags", "Tag filter", "x", {"type": "string", "enum": [{"a"}]}),
            param("limit", "Most modes to list", 10, {"type": "integer"}),
        ]}}},
    }


# Fields of a written `ApiParameter` set to a JSON value of the wrong type:
# id -> (path into the parameter, value, what the reader must say).
WRONG_TYPED_PARAMETER_FIELDS = {
    "api_name": (("api_name",), ["x"], "api_name must be a string"),
    "operation_id": (("operation_id",), 5, "operation_id must be a string"),
    "param_name": (("param_name",), 5, "param_name must be a string"),
    "description": (("description",), 5, "description must be a string"),
    "location": (("location",), None, "location must be a string"),
    "source_pointer": (("source_pointer",), 5, "source_pointer must be a string"),
    "required-text": (("required",), "no", "required must be a boolean"),
    "required-number": (("required",), 0, "required must be a boolean"),
    "kind": (("declared_type", "kind"), 5, "kind must be a string"),
    "enum_values": (
        ("declared_type",),
        {"kind": "enum", "enum_values": ["USD", 5], "item_kind": None},
        "an item of enum_values must be a string, not int",
    ),
    "enum_values-null": (("declared_type", "enum_values"), None, "enum_values must be a list, not NoneType"),
    **{
        f"{where[-1]}-{type(value).__name__}": (where, value, f"{where[-1]} must be an object, not {type(value).__name__}")
        for where in [("declared_type",), ("declared_type", "item_kind")]
        for value in [[1], "x"]
    },
    "existing_examples": (("existing_examples",), {}, "existing_examples must be a list, not dict"),
    "example-raw_text": (("existing_examples", 0, "raw_text"), 5, "raw_text must be a string"),
    "example-parsed_kind": (("existing_examples", 0, "parsed_kind"), ["string"], "parsed_kind must be a string"),
}


def set_path(tree, path, value) -> None:
    """Set the node that `path` (dict keys and list indices) names in `tree`."""
    for key in path[:-1]:
        tree = tree[key]
    tree[path[-1]] = value


def write_format_1_bank(path: Path, bank: ParameterBank, index_version: int | None = None) -> None:
    """Write `bank` at `path` as banks were written before format 2.

    The header holds only `source_digest`, and each entry line is
    `{"parameter": ..., "canonical_example": ...}`, the second a copy of the
    first example. With `index_version`, an index file of that version lies
    beside it and vouches for these bytes, by their `bank_digest` from version 4
    on and by their SHA-256 before; version 2 repeated the bank's
    `source_digest` in its header. Without it there is no index file.
    """
    from icicl.bank import bank_digest, index_path, save_bank
    from icicl.model import json_line

    save_bank(bank, path)  # for the index's terms and words, which format 1 shared
    lines = [(json.dumps({"source_digest": bank.source_digest}) + "\n").encode("utf-8")]
    lines += [json_line({"parameter": p, "canonical_example": p.existing_examples[0]}) for p in bank.entries]
    data = b"".join(lines)
    path.write_bytes(data)
    if index_version is None:
        index_path(path).unlink()
        return
    _, terms, words = index_path(path).read_bytes()[:-32].split(b"\n", 2)
    if index_version >= 4:
        vouch = {"bank_digest": bank_digest(data)}
    else:
        vouch = {"bank_sha256": hashlib.sha256(data).hexdigest()}
    header = {"version": index_version, **vouch, "entries": len(bank.entries)}
    if index_version == 2:
        header = {"version": 2, "source_digest": bank.source_digest, **header}
    line_lengths = struct.pack(f"<{len(bank.entries)}I", *map(len, lines[1:]))
    body = json_line(header) + terms + b"\n" + line_lengths + words[len(line_lengths) :]
    index_path(path).write_bytes(body + hashlib.sha256(body).digest())


# ---------------------------------------------------------------------------
# BM25 oracle: the textbook formula, computed directly per (doc, query) pair

def bm25_oracle(
    doc_tokens: list[list[str]], query_tokens: list[str], k1: float = 1.2, b: float = 0.75
) -> list[float]:
    n = len(doc_tokens)
    avg_len = sum(len(d) for d in doc_tokens) / n
    scores = []
    for doc in doc_tokens:
        score = 0.0
        for term in query_tokens:
            tf = doc.count(term)
            if tf == 0:
                continue
            df = sum(1 for other in doc_tokens if term in other)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            score += idf * (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * len(doc) / avg_len))
        scores.append(score)
    return scores


# ---------------------------------------------------------------------------
# retrieval references: the two-pass tokenizer, and a full-bank ranking

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)
_CAMEL_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]+(?![a-z])|[A-Z][a-z]*|[a-z]+|\d+|[^\dA-Za-z]+")


def tokenize_reference(text: str) -> list[str]:
    """Split into word chunks first, then split each chunk on camelCase humps."""
    tokens: list[str] = []
    for chunk in _WORD_RE.findall(text):
        tokens.extend(part.lower() for part in _CAMEL_RE.findall(chunk))
    return [t for t in tokens if t]


def ranking_reference(
    doc_tokens: list[list[str]], query_tokens: list[str], k1: float = 1.2, b: float = 0.75
) -> list[tuple[int, float]]:
    """(entry_index, score) for every doc, one full sort by (score desc, index asc).

    Scores are summed per query token in query order with the same float
    operations as the library, so the result is comparable exactly.
    """
    n = len(doc_tokens)
    avg = sum(len(d) for d in doc_tokens) / n
    scores = [0.0] * n
    for term in query_tokens:
        df = sum(1 for d in doc_tokens if term in d)
        if df == 0:
            continue
        w = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for i, doc in enumerate(doc_tokens):
            tf = doc.count(term)
            if tf:
                norm = k1 * (1.0 - b + b * len(doc) / avg)
                scores[i] += w * tf * (k1 + 1.0) / (tf + norm)
    return sorted(enumerate(scores), key=lambda pair: (-pair[1], pair[0]))


# ---------------------------------------------------------------------------
# selection oracle: the five postprocess steps, written as literal scans

def select_oracle(
    greedy: str | None,
    diverse: list[str],
    type_ok,
    embed_fn,
) -> tuple[list[str], list[str]] | None:
    """Returns (examples, provenance) or None when the greedy anchor is unusable.

    `type_ok(text) -> bool` stands in for the declared-type check; `embed_fn`
    maps a text to a unit-vector list for the similarity stage.
    """
    if greedy is None or not type_ok(greedy):
        return None

    survivors = [d for d in diverse if type_ok(d)]  # step 1
    multiset = [greedy] + survivors  # step 2

    def fold(t: str) -> str:
        return t.casefold()

    order: list[str] = []
    casing: dict[str, str] = {}
    for t in multiset:
        if fold(t) not in casing:
            casing[fold(t)] = t
            order.append(fold(t))

    picked = [fold(greedy)]  # step 3
    prov = ["greedy"]

    repeats = [k for k in order if multiset_count(multiset, k) >= 2 and k != fold(greedy)]
    repeats.sort(key=lambda k: (-multiset_count(multiset, k), order.index(k)))
    for k in repeats:  # step 4
        if len(picked) >= 3:
            break
        picked.append(k)
        prov.append("repeated")

    if len(picked) < 3:  # step 5
        rest = [k for k in order if k not in picked]
        gv = embed_fn(casing[fold(greedy)])
        scored = []
        for k in rest:
            v = embed_fn(casing[k])
            if v == gv:
                sim = 1.0
            else:
                sim = max(-1.0, min(1.0, sum(x * y for x, y in zip(gv, v))))
            scored.append((k, sim))
        scored.sort(key=lambda kv: (-kv[1], order.index(kv[0])))
        for k, _sim in scored:
            if len(picked) >= 3:
                break
            picked.append(k)
            prov.append("embedding_selected")

    return [casing[k] for k in picked], prov


def multiset_count(values: list[str], folded: str) -> int:
    return sum(1 for v in values if v.casefold() == folded)


# ---------------------------------------------------------------------------
# sampling oracle: independent without-replacement sampler over exp(score/T)

def sample_oracle_draw(
    scores: list[float], temperature: float, rng: random.Random, count: int
) -> list[int]:
    """One context's worth of draws; renormalizes over the remaining entries."""
    remaining = list(range(len(scores)))
    out = []
    for _ in range(count):
        weights = [math.exp(scores[i] / temperature) for i in remaining]
        total = sum(weights)
        r = rng.random() * total
        cum = 0.0
        pick = remaining[-1]
        for i, w in zip(remaining, weights):
            cum += w
            if r < cum:
                pick = i
                break
        out.append(pick)
        remaining.remove(pick)
    return out


def sample_reference_entries(ranking, seed: int, contexts: int, shots: int, temperature: float) -> list[list[int]]:
    """The entry indices `sample_contexts` draws per context, with one exp per
    ranked entry as it computed them before weights were shared per run of
    equal scores. The draws go through the package's own sampler, so only the
    weights differ from `sample_contexts`.
    """
    from icicl.contexts import _draw_without_replacement

    scores, order = ranking.scores, ranking.order
    peak = scores[order[0]] if order else 0.0
    weights = [math.exp((scores[e] - peak) / temperature) for e in order]
    cumulative = list(itertools.accumulate(weights))
    tail_weight = math.exp((0.0 - peak) / temperature)
    rng = random.Random(seed)
    per_context = min(shots, len(ranking))
    return [
        [
            ranking.entry(rank)
            for rank in _draw_without_replacement(rng, weights, cumulative, tail_weight, ranking.tail_len, per_context)
        ]
        for _ in range(contexts)
    ]


# ---------------------------------------------------------------------------
# diversity oracle

def diversity_oracle(texts: list[str], embed_fn) -> float:
    vectors = [embed_fn(t) for t in texts]
    sims = []
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            sims.append(sum(x * y for x, y in zip(vectors[i], vectors[j])))
    value = 1.0 - sum(sims) / len(sims)
    return min(1.0, max(0.0, value))


# ---------------------------------------------------------------------------
# structural OpenAPI 3.x validation (subset, but strict about what it checks)

_METHODS = {"get", "put", "post", "delete", "options", "head", "patch", "trace"}
_PATH_ITEM_EXTRAS = {"summary", "description", "servers", "parameters", "$ref"}
_PARAM_LOCATIONS = {"query", "header", "path", "cookie"}
_SCHEMA_TYPES = {"string", "number", "integer", "boolean", "array", "object", "null"}


def validate_openapi(tree) -> list[str]:
    """Structural problems of an OpenAPI 3.x document; empty list means valid."""
    problems: list[str] = []

    def err(msg: str) -> None:
        problems.append(msg)

    if not isinstance(tree, dict):
        return ["document root must be an object"]
    version = tree.get("openapi")
    if not isinstance(version, str) or not version.startswith("3."):
        err(f"openapi version missing or not 3.x: {version!r}")
    info = tree.get("info")
    if not isinstance(info, dict):
        err("info object missing")
    else:
        if not isinstance(info.get("title"), str) or not info["title"]:
            err("info.title missing")
        if not isinstance(info.get("version"), str) or not info["version"]:
            err("info.version missing")

    paths = tree.get("paths")
    if paths is None:
        return problems
    if not isinstance(paths, dict):
        return problems + ["paths must be an object"]

    seen_op_ids: dict[str, str] = {}
    for path, item in paths.items():
        where = f"paths.{path}"
        if not isinstance(path, str) or not path.startswith("/"):
            err(f"{where}: path must start with '/'")
        if not isinstance(item, dict):
            err(f"{where}: path item must be an object")
            continue
        for key, value in item.items():
            if key in _PATH_ITEM_EXTRAS or key.startswith("x-"):
                if key == "parameters":
                    problems.extend(_check_parameters(value, where, version))
                continue
            if key not in _METHODS:
                err(f"{where}: unknown path item key {key!r}")
                continue
            op = value
            opw = f"{where}.{key}"
            if not isinstance(op, dict):
                err(f"{opw}: operation must be an object")
                continue
            opid = op.get("operationId")
            if opid is not None:
                if opid in seen_op_ids:
                    err(f"{opw}: duplicate operationId {opid!r} (also at {seen_op_ids[opid]})")
                else:
                    seen_op_ids[opid] = opw
            if "parameters" in op:
                problems.extend(_check_parameters(op["parameters"], opw, version))
            responses = op.get("responses")
            if responses is not None and not isinstance(responses, dict):
                err(f"{opw}: responses must be an object")
            if responses is None and not version.startswith("3.1"):
                err(f"{opw}: responses required before 3.1")
    return problems


def _check_parameters(params, where: str, version: str) -> list[str]:
    problems: list[str] = []
    if not isinstance(params, list):
        return [f"{where}: parameters must be a list"]
    seen: set[tuple[str, str]] = set()
    for i, p in enumerate(params):
        pw = f"{where}.parameters[{i}]"
        if not isinstance(p, dict):
            problems.append(f"{pw}: parameter must be an object")
            continue
        if "$ref" in p:
            continue
        name, loc = p.get("name"), p.get("in")
        if not isinstance(name, str) or not name:
            problems.append(f"{pw}: name missing")
        if loc not in _PARAM_LOCATIONS:
            problems.append(f"{pw}: bad location {loc!r}")
        if (str(name), str(loc)) in seen:
            problems.append(f"{pw}: duplicate (name, in)")
        seen.add((str(name), str(loc)))
        if loc == "path" and p.get("required") is not True:
            problems.append(f"{pw}: path parameters must be required")
        if "schema" in p:
            problems.extend(_check_schema(p["schema"], pw + ".schema", version))
        elif "content" not in p:
            problems.append(f"{pw}: needs schema or content")
    return problems


def _check_schema(schema, where: str, version: str) -> list[str]:
    problems: list[str] = []
    if not isinstance(schema, dict):
        return [f"{where}: schema must be an object"]
    t = schema.get("type")
    if t is not None:
        types = t if isinstance(t, list) else [t]
        if isinstance(t, list) and not version.startswith("3.1"):
            problems.append(f"{where}: type lists need 3.1")
        for member in types:
            if member not in _SCHEMA_TYPES:
                problems.append(f"{where}: bad type {member!r}")
    enum = schema.get("enum")
    if enum is not None and not isinstance(enum, list):
        problems.append(f"{where}: enum must be a list")
    if "examples" in schema and not version.startswith("3.1"):
        problems.append(f"{where}: schema examples list needs 3.1")
    examples = schema.get("examples")
    if examples is not None and not isinstance(examples, list):
        problems.append(f"{where}: schema examples must be a list")
    if "items" in schema:
        problems.extend(_check_schema(schema["items"], where + ".items", version))
    return problems


# ---------------------------------------------------------------------------
# embedding fixtures

EMBED_TABLE: dict[str, list[float]] = {
    "USD": [1.0, 0.0, 0.0, 0.0],
    "EUR": [0.96, 0.28, 0.0, 0.0],
    "CAD": [0.6, 0.8, 0.0, 0.0],
    "GPP": [0.0, 1.0, 0.0, 0.0],
    "ZAR": [0.0, 0.6, 0.8, 0.0],
    "INR": [0.0, 0.0, 1.0, 0.0],
    "MXN": [0.0, 0.0, 0.0, 1.0],
    "CNY": [0.0, 0.8, 0.6, 0.0],
}


def table_vector(text: str, table: dict[str, list[float]] | None = None) -> list[float]:
    """Unit vector from the fixture table, falling back to a hash direction."""
    table = EMBED_TABLE if table is None else table
    if text in table:
        return list(table[text])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    raw = [1.0 + digest[i] for i in range(4)]
    norm = math.sqrt(sum(v * v for v in raw))
    return [v / norm for v in raw]


class FixtureEmbedder:
    """In-process EmbeddingProvider over the canned table."""

    provider_id = "fixture-table"

    def __init__(self, table: dict[str, list[float]] | None = None):
        self.table = EMBED_TABLE if table is None else table

    def embed(self, texts):
        from icicl.embeddings import EmbeddingVector

        return [EmbeddingVector(components=tuple(table_vector(t, self.table))) for t in texts]


def EmbedServer(table: dict[str, list[float]] | None = None):  # noqa: N802 (used like a class)
    """Context manager exposing the table embedder over HTTP on a local port."""
    table = table or EMBED_TABLE

    def respond(headers, payload):
        return 200, json.dumps({"vectors": [table_vector(t, table) for t in payload.get("texts", [])]})

    return local_server(respond)


# ---------------------------------------------------------------------------
# local HTTP stub

@contextlib.contextmanager
def local_server(respond, keep_alive=False, idle_timeout_s=None):
    """Serve POSTs on a local port for the block; yields the server, whose `endpoint` is its URL.

    `respond(headers, payload)` gets each request's headers and decoded JSON
    body and returns (status, body text), or (status, body text, a dict of
    headers to send besides). The server answers in HTTP/1.0 and
    closes each connection, or with `keep_alive` in HTTP/1.1 and keeps it
    open; `idle_timeout_s` then closes a connection idle that long. Its
    `peers` list gets each request's client address, one port per connection.
    """

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"
        timeout = idle_timeout_s
        # headers and body go out in two sends: without this the second waits on the client's delayed ACK
        disable_nagle_algorithm = True

        def do_POST(self):  # noqa: N802 (http.server naming)
            server.peers.append(self.client_address)
            payload = json.loads(self.rfile.read(int(self.headers.get("Content-Length", "0"))))
            status, body, *extra = respond(self.headers, payload)
            data = body.encode("utf-8")
            self.send_response(status)
            for name, value in (extra[0] if extra else {}).items():
                self.send_header(name, value)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):  # keep test output quiet
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.peers = []
    server.endpoint = f"http://127.0.0.1:{server.server_port}/"
    # a short poll keeps shutdown from waiting out serve_forever's default half second
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


# ---------------------------------------------------------------------------
# output goldens: the running example's CLI runs, pinned byte for byte

REPO = Path(__file__).resolve().parent.parent
RUNNING = "tests/fixtures/running"

_ENRICH = [
    "--bank", f"{RUNNING}/bank.jsonl",
    "--backend", "replay",
    "--replay-file", f"{RUNNING}/replay.json",
    "--embedder", "trigram",
    "--seed", "0",
]

OUTPUT_COMMANDS = [
    ["enrich", f"{RUNNING}/spec.yaml", "{out}/doc.yaml", "--mode", "doc", *_ENRICH],
    ["enrich", f"{RUNNING}/spec.yaml", "{out}/fuzz.yaml", "--mode", "fuzz", *_ENRICH],
    ["eval", "{out}/doc.yaml.records.jsonl", "--json", "{out}/doc.eval.json", "--csv", "{out}/doc.eval.csv"],
]


def write_running_outputs(out_dir: Path) -> None:
    """Run OUTPUT_COMMANDS in-process from the repository root, writing into out_dir.

    The inputs are passed as relative paths and the settings environment is
    cleared, so the manifests' config snapshots are the same on every machine.
    """
    from click.testing import CliRunner

    from icicl.cli import _ENV_KEYS, main

    env = {name: None for name in _ENV_KEYS.values()}
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        for command in OUTPUT_COMMANDS:
            args = [arg.format(out=out_dir) for arg in command]
            result = CliRunner().invoke(main, args, env=env)
            if result.exit_code != 0:
                raise AssertionError(f"{args} exited {result.exit_code}: {result.output}")
    finally:
        os.chdir(cwd)
