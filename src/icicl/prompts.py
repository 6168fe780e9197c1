"""Rendering contexts into completion prompts and parsing what comes back."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .contexts import PromptContext
from .model import ACCEPTED_KINDS, ApiParameter, ExampleValue

HEADER = "# Given an OpenAPI parameter, generate a unique example of the parameter."

MAX_NEW_TOKENS = 64
STOP_SEQUENCES = ("\n",)


@dataclass(frozen=True)
class GenerationRequest:
    prompt: str
    temperature: float


@dataclass(frozen=True)
class RawGeneration:
    text: str
    backend_id: str = ""
    latency_ms: int = 0


# json.dumps(value, ensure_ascii=False) of one string, through the C encoder
_encode = json.JSONEncoder(ensure_ascii=False).encode


def _input_block(index: int, param: ApiParameter) -> str:
    # the layout json.dumps(fields, indent=4, ensure_ascii=False) gives, whose
    # pure-Python encoder escapes each string with the same function as _encode
    body = (
        f'{{\n    "param_name": {_encode(param.param_name)},'
        f'\n    "type": {_encode(param.declared_type.kind)},'
        f'\n    "operation_id": {_encode(param.operation_id)},'
        f'\n    "description": {_encode(param.description)},'
        f'\n    "api_name": {_encode(param.api_name)}\n}}'
    )
    comment = f"# must generate a unique {param.param_name} {param.declared_type.kind}"
    return f"input_{index} = {body}\n{comment}\n"


def render_prompt(context: PromptContext) -> str:
    """Byte-deterministic prompt: header, one block per shot, dangling target.

    Every shot contributes an input_i object, a "# must generate a unique ..."
    comment, and its example as a JSON literal. The target repeats the shape
    but ends at "example_n = " (with the trailing space) for the model to
    complete.
    """
    parts = [HEADER + "\n"]
    for i, shot in enumerate(context.shots):
        parts.append(_input_block(i, shot.parameter))
        parts.append(f"example_{i} = {shot.example.to_json_text()}\n")
    n = len(context.shots)
    parts.append(_input_block(n, context.target))
    parts.append(f"example_{n} = ")
    return "".join(parts)


def parse_generation(raw: RawGeneration, declared_kind: str) -> ExampleValue | None:
    """First line of the completion as an ExampleValue, or None when empty.

    Kinds that accept a string lose one layer of matching quotes so that a
    model completing `example_6 = "USD"` yields the value USD.
    """
    text = raw.text.split("\n", 1)[0].strip()
    accepted = ACCEPTED_KINDS[declared_kind]
    if (accepted is None or "string" in accepted) and len(text) >= 2:
        if text[0] == text[-1] and text[0] in ('"', "'"):
            text = text[1:-1]
    if not text.strip():
        return None
    return ExampleValue.from_raw(text)
