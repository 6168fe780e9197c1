"""Core data types: typed parameters, example values, and the parameter bank."""

from __future__ import annotations

import functools
import json
import math
import zlib
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Sequence
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, get_args, get_origin, get_type_hints

if TYPE_CHECKING:
    from .retrieval import RetrievalIndex

# schema kind -> the parsed kinds its values may take; None where they may be of any parsed kind
ACCEPTED_KINDS: dict[str, frozenset[str] | None] = {
    "string": frozenset({"string"}),
    "integer": frozenset({"integer"}),
    "number": frozenset({"integer", "number"}),
    "boolean": frozenset({"boolean"}),
    "array": frozenset({"array"}),
    "object": frozenset({"object"}),
    "enum": None,
    "datetime": frozenset({"string"}),
    "unknown": None,
}

SCHEMA_KINDS = frozenset(ACCEPTED_KINDS)

# the exact type of a decoded JSON value -> its parsed kind
_JSON_KINDS = {bool: "boolean", int: "integer", float: "number", str: "string", list: "array", dict: "object", type(None): "null"}

PARSED_KINDS = frozenset(_JSON_KINDS.values())

LOCATIONS = frozenset({"path", "query", "header", "cookie", "body-field"})


def write_atomic(path: str | Path, data: str | bytes | Iterable[bytes]) -> None:
    """Write `<name>.tmp` beside the target, then replace the target with it.

    Text is encoded as UTF-8; an iterable of byte chunks is written chunk by
    chunk as it yields them, so the whole file need not be in memory. Readers
    see the old file or the new one, never a partial write, and a write that
    fails, in the iterable or on disk, removes the `.tmp` file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        with tmp.open("wb") as fh:
            fh.writelines((data,) if isinstance(data, bytes) else data)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@functools.cache
def _field_names(cls: type) -> tuple[str, ...] | None:
    """The field names of a dataclass in declaration order; None for any other class."""
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else None


def encode_fields(value: Any) -> dict[str, Any]:
    """The `default=` hook of every `json.dumps` that writes a file.

    A dataclass instance is written as its fields in declaration order.
    Anything else JSON cannot encode raises TypeError. The fields are read
    by name: `vars()` would be faster, but on CPython 3.11+ it gives every
    instance it meets a `__dict__` that lasts as long as the instance.
    """
    names = _field_names(type(value))
    if names is None:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return {name: getattr(value, name) for name in names}


def _json(kind: type, what: str, name: str, value: Any) -> Any:
    """`value`, which field `name` must hold as `what`, a JSON value of type `kind`."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be {what}, not {type(value).__name__}")
    return value


def _decoder(hint: Any, name: str) -> Callable[[Any], Any]:
    """Field `name`'s decoder into its type `hint`: `str`, `bool`, a dataclass `X` or `X | None`, or `tuple[T, ...]` of one."""
    args = get_args(hint)
    if get_origin(hint) is tuple:
        item = _decoder(args[0], f"an item of {name}")
        return lambda value: tuple(map(item, _json(list, "a list", name, value)))
    if is_dataclass(args[0] if args else hint):  # X | None has args (X, NoneType)
        return functools.partial(_decode, args[0] if args else hint, name, bool(args))
    return functools.partial(_json, hint, "a string" if hint is str else "a boolean", name)


@functools.cache
def _field_decoders(cls: type) -> tuple[tuple[str, type | None, Callable[[Any], Any], Any], ...]:
    """Per `init` field of a dataclass: its name, the JSON type it holds as is (`str`, `bool`)
    or None, its decoder, and the value of a missing key: None where its type admits None,
    else the field's default, MISSING if it has none.
    """
    hints = get_type_hints(cls)
    init_fields = [(f.name, hints[f.name], f.default) for f in fields(cls) if f.init]
    return tuple(
        (name, hint if hint in (str, bool) else None, _decoder(hint, name), None if type(None) in get_args(hint) else default)
        for name, hint, default in init_fields
    )


def _decode(cls: type, name: str, nullable: bool, value: Any) -> Any:
    if value is None and nullable:
        return None
    if not isinstance(value, dict):
        raise TypeError(f"{name} must be an object, not {type(value).__name__}")
    kwargs = {}
    # a nested dataclass is decoded by a partial of this function, one stack frame per level
    for key, kind, decode, fill in _field_decoders(cls):
        item = value.get(key, fill)
        if item is MISSING:
            raise KeyError(key)
        # the default itself needs no decoding, nor does a text or boolean of its JSON type
        kwargs[key] = item if item is fill or type(item) is kind else decode(item)
    return cls(**kwargs)


def decode_fields(cls: type, value: Any) -> Any:
    """The instance of dataclass `cls` whose `encode_fields` JSON is `value`. A value of
    the wrong JSON type raises TypeError naming its field; a missing key takes the
    field's default, or None where its type admits None, and any other raises
    KeyError. Unknown keys are ignored. A value nested too deeply raises RecursionError.
    """
    return _decode(cls, cls.__name__, False, value)


json_text = json.encoder.encode_basestring  # a text as `json.dumps(ensure_ascii=False)` writes it


def json_line(value: Any) -> bytes:
    """`value` as one JSON-lines line: compact UTF-8 JSON ending in LF. Lines end
    at LF only: U+2028, U+2029 and U+0085 are written unescaped. A value nested
    too deeply for the encoder raises ValueError.
    """
    try:
        text = json.dumps(value, ensure_ascii=False, separators=(",", ":"), default=encode_fields)
    except RecursionError as exc:
        raise ValueError("cannot write JSON: nested too deeply") from exc
    return (text + "\n").encode("utf-8")


BLANK_LINE: Any = object()  # what `read_json_line` gives for a line readers skip


def read_json_line(raw: bytes) -> Any:
    """The value of one JSON-lines line without its LF, or BLANK_LINE for a line
    that is whitespace once decoded. ValueError says why a line is unreadable,
    and where in it the decoder stopped when the text is not JSON.
    """
    try:
        text = raw.decode("utf-8")
        return json.loads(text) if text.strip() else BLANK_LINE
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8: {exc.reason}") from exc
    except json.JSONDecodeError as exc:  # its message can end in "at", before the position
        raise ValueError(f"not JSON: {exc.msg}: column {exc.colno}") from exc
    except ValueError as exc:  # an integer literal over the digit limit of `int`
        raise ValueError(f"not JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError("not JSON: nested too deeply") from exc


def write_json(path: str | Path, value: Any) -> None:
    """Write `value` as indented UTF-8 JSON ending in a newline, atomically."""
    write_atomic(path, json.dumps(value, indent=2, ensure_ascii=False, default=encode_fields) + "\n")


@dataclass(frozen=True, slots=True)
class SchemaType:
    """Normalized parameter type taxonomy.

    kind "enum" carries the member texts in enum_values; kind "array" carries
    the element type in item_kind; every other kind uses neither field.
    """

    kind: str
    enum_values: tuple[str, ...] = ()
    item_kind: "SchemaType | None" = None

    def __post_init__(self) -> None:
        if self.kind not in SCHEMA_KINDS:
            raise ValueError(f"bad schema kind: {self.kind!r}")
        if (self.kind == "enum") != bool(self.enum_values):
            raise ValueError("enum_values must be non-empty exactly when kind is 'enum'")
        if self.kind == "enum" and not all(isinstance(member, str) for member in self.enum_values):
            raise ValueError("enum_values must be texts")  # 1 and True are equal, but not as JSON
        if (self.kind == "array") != (self.item_kind is not None):
            raise ValueError("item_kind must be present exactly when kind is 'array'")


def _finite(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"{text} overflows a float")
    return value


def _not_a_number(name: str) -> float:
    raise ValueError(f"{name} is not a JSON number")


# RFC 8259 JSON: NaN, Infinity and numbers that overflow to infinity are not numbers
STRICT_JSON = json.JSONDecoder(parse_float=_finite, parse_constant=_not_a_number)


def classify_json_text(raw_text: str) -> str:
    """JSON-literal classification of a text; non-JSON text is a string.

    NaN, Infinity and numbers that overflow a float, which Python's `json`
    reads but RFC 8259 does not allow, are not JSON here, and neither is an
    integer over the digit limit of `int`, which Python cannot read.
    """
    try:
        value = STRICT_JSON.decode(raw_text)
    except (ValueError, RecursionError):
        return "string"
    return _JSON_KINDS[type(value)]


@dataclass(frozen=True, slots=True)
class ExampleValue:
    """An example in its exact textual form plus its JSON-literal kind."""

    raw_text: str
    parsed_kind: str

    def __post_init__(self) -> None:
        if not self.raw_text.strip():
            raise ValueError("raw_text must be non-empty after trimming")
        if self.parsed_kind not in PARSED_KINDS:
            raise ValueError(f"bad parsed kind: {self.parsed_kind!r}")
        # files written before NaN and Infinity became text still call them numbers
        if self.parsed_kind == "number" and not math.isfinite(float(self.raw_text)):
            raise ValueError(f"number {self.raw_text!r} is not finite")

    @classmethod
    def from_raw(cls, raw_text: str) -> "ExampleValue":
        return cls(raw_text=raw_text, parsed_kind=classify_json_text(raw_text))

    @classmethod
    def from_python(cls, value: Any) -> "ExampleValue":
        """Build from a value taken out of a parsed document tree: a text is a
        string whatever it reads as, so `"94103"` stays a string; anything else
        is `from_raw` of its JSON text.

        Where the value fixes its kind, nothing is decoded: a text, a bool, an
        int or a finite float is of its type's kind.
        """
        if isinstance(value, str):
            return cls(value, "string")
        kind = type(value)
        if kind is bool:
            return cls("true" if value else "false", "boolean")
        if kind is int:
            return cls(repr(value), "integer")  # over the digit limit of `int`, the ValueError json.dumps raises
        if kind is float and math.isfinite(value):
            return cls(repr(value), "number")
        return cls.from_raw(json.dumps(value, ensure_ascii=False))

    def to_python(self) -> Any:
        """The value as a plain Python object, ready for re-serialization."""
        if self.parsed_kind == "string":
            return self.raw_text
        return json.loads(self.raw_text)

    def to_json_text(self) -> str:
        """The value as a JSON literal (strings gain quotes)."""
        if self.parsed_kind == "string":
            return json_text(self.raw_text)
        return self.raw_text


@dataclass(frozen=True, slots=True)
class ApiParameter:
    """One operation parameter (or request-body scalar field) of an API."""

    api_name: str
    operation_id: str
    param_name: str
    description: str
    location: str
    required: bool
    declared_type: SchemaType
    existing_examples: tuple[ExampleValue, ...]
    source_pointer: str

    def __post_init__(self) -> None:
        if not self.param_name:
            raise ValueError("param_name must be non-empty")
        if self.location not in LOCATIONS:
            raise ValueError(f"bad location: {self.location!r}")


def identity_hash(api_name: str, source_pointer: str) -> int:
    """The CRC-32 of `api_name + "\\0" + source_pointer` in UTF-8: the key an
    entry's identity is looked up by, in memory and in the bank index.
    """
    return zlib.crc32(f"{api_name}\0{source_pointer}".encode("utf-8", "surrogatepass"))


def identity_order(entries: Iterable[ApiParameter]) -> tuple[array, array]:
    """The entries' `identity_hash`es in ascending order, and the entry of
    each; entries of equal hash in entry order. Both are `array("I")`.

    The entries are bucketed by their hash's top byte, in entry order, and
    each bucket is sorted stably by hash, so no list the size of the entries
    is built.
    """
    hashes = array("I", (identity_hash(param.api_name, param.source_pointer) for param in entries))
    buckets = [array("I") for _ in range(256)]
    for idx, key in enumerate(hashes):
        buckets[key >> 24].append(idx)
    order = array("I")
    for bucket in buckets:
        order.extend(sorted(bucket, key=hashes.__getitem__))
    return array("I", map(hashes.__getitem__, order)), order


@dataclass
class ParameterBank:
    """The example bank mined from a spec corpus.

    Every entry carries at least one example; the first is the one a prompt
    shows. A bank that `load_bank` read with its index file carries that
    index, and its entries are parsed as they are read.
    """

    entries: Sequence[ApiParameter] = field(default_factory=list)
    source_digest: str = ""
    index: RetrievalIndex | None = field(default=None, compare=False, repr=False)

    @functools.cached_property
    def identities(self) -> tuple[array, array]:
        """`identity_order` of the entries, whether the bank was mined or loaded.

        Built on first use, unless `load_bank` set it from the index file;
        entries added after that are not in it.
        """
        return identity_order(self.entries)

    def entries_with(self, api_name: str, source_pointer: str) -> tuple[int, ...]:
        """The indices, ascending, of the entries with this (api_name, source_pointer).

        The hash picks the candidates and each candidate's own identity decides,
        so a hash collision drops no other entry; only candidates are parsed.
        """
        hashes, order = self.identities
        key = identity_hash(api_name, source_pointer)
        first = bisect_left(hashes, key)
        candidates = sorted(order[first : bisect_right(hashes, key, first)])
        entries = self.entries
        return tuple(
            idx
            for idx in candidates
            if entries[idx].api_name == api_name and entries[idx].source_pointer == source_pointer
        )
