"""Core data types: typed parameters, example values, and the parameter bank."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

SCHEMA_KINDS = frozenset(
    {"string", "integer", "number", "boolean", "array", "object", "enum", "datetime", "unknown"}
)

PARSED_KINDS = frozenset({"string", "integer", "number", "boolean", "array", "object", "null"})

LOCATIONS = frozenset({"path", "query", "header", "cookie", "body-field"})


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Write `<name>.tmp` beside the target, then replace the target with it.

    Text is encoded as UTF-8. Readers see the old file or the new one, never a
    partial write.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    tmp.replace(path)


@dataclass(frozen=True)
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
        if (self.kind == "array") != (self.item_kind is not None):
            raise ValueError("item_kind must be present exactly when kind is 'array'")

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "enum_values": list(self.enum_values),
            "item_kind": self.item_kind.to_dict() if self.item_kind else None,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "SchemaType":
        return cls(
            kind=d["kind"],
            enum_values=tuple(d.get("enum_values") or ()),
            item_kind=cls.from_dict(d["item_kind"]) if d.get("item_kind") else None,
        )


def classify_json_text(raw_text: str) -> str:
    """JSON-literal classification of a text; non-JSON text is a string."""
    try:
        value = json.loads(raw_text)
    except (json.JSONDecodeError, RecursionError):
        return "string"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, list):
        return "array"
    if isinstance(value, dict):
        return "object"
    return "null"


@dataclass(frozen=True)
class ExampleValue:
    """An example in its exact textual form plus its JSON-literal kind."""

    raw_text: str
    parsed_kind: str

    def __post_init__(self) -> None:
        if not self.raw_text.strip():
            raise ValueError("raw_text must be non-empty after trimming")
        if self.parsed_kind not in PARSED_KINDS:
            raise ValueError(f"bad parsed kind: {self.parsed_kind!r}")

    @classmethod
    def from_raw(cls, raw_text: str) -> "ExampleValue":
        return cls(raw_text=raw_text, parsed_kind=classify_json_text(raw_text))

    @classmethod
    def from_python(cls, value: Any) -> "ExampleValue":
        """Build from a value taken out of a parsed document tree."""
        raw = value if isinstance(value, str) else json.dumps(value, ensure_ascii=False)
        return cls.from_raw(raw)

    def to_python(self) -> Any:
        """The value as a plain Python object, ready for re-serialization."""
        if self.parsed_kind == "string":
            return self.raw_text
        return json.loads(self.raw_text)

    def to_json_text(self) -> str:
        """The value as a JSON literal (strings gain quotes)."""
        if self.parsed_kind == "string":
            return json.dumps(self.raw_text, ensure_ascii=False)
        return self.raw_text

    def to_dict(self) -> dict[str, Any]:
        return {"raw_text": self.raw_text, "parsed_kind": self.parsed_kind}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ExampleValue":
        return cls(raw_text=d["raw_text"], parsed_kind=d["parsed_kind"])


@dataclass(frozen=True)
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

    def to_dict(self) -> dict[str, Any]:
        return {
            "api_name": self.api_name,
            "operation_id": self.operation_id,
            "param_name": self.param_name,
            "description": self.description,
            "location": self.location,
            "required": self.required,
            "declared_type": self.declared_type.to_dict(),
            "existing_examples": [e.to_dict() for e in self.existing_examples],
            "source_pointer": self.source_pointer,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ApiParameter":
        return cls(
            api_name=d["api_name"],
            operation_id=d["operation_id"],
            param_name=d["param_name"],
            description=d["description"],
            location=d["location"],
            required=bool(d["required"]),
            declared_type=SchemaType.from_dict(d["declared_type"]),
            existing_examples=tuple(ExampleValue.from_dict(e) for e in d["existing_examples"]),
            source_pointer=d["source_pointer"],
        )


@dataclass(frozen=True)
class BankEntry:
    """A mined parameter that carries at least one example."""

    parameter: ApiParameter
    canonical_example: ExampleValue

    def __post_init__(self) -> None:
        if not self.parameter.existing_examples:
            raise ValueError("bank entries require at least one example")
        if self.canonical_example != self.parameter.existing_examples[0]:
            raise ValueError("canonical_example must be the first listed example")

    def identity(self) -> tuple[str, str, str, str]:
        p = self.parameter
        return (p.api_name, p.operation_id, p.param_name, p.source_pointer)

    def to_dict(self) -> dict[str, Any]:
        return {
            "parameter": self.parameter.to_dict(),
            "canonical_example": self.canonical_example.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "BankEntry":
        return cls(
            parameter=ApiParameter.from_dict(d["parameter"]),
            canonical_example=ExampleValue.from_dict(d["canonical_example"]),
        )


@dataclass
class ParameterBank:
    """The example bank mined from a spec corpus."""

    entries: list[BankEntry] = field(default_factory=list)
    source_digest: str = ""

    def __len__(self) -> int:
        return len(self.entries)
