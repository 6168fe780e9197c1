"""Rendering contexts into completion prompts and parsing what comes back."""

from __future__ import annotations

from dataclasses import dataclass

from .contexts import PromptContext
from .model import ACCEPTED_KINDS, ApiParameter, ExampleValue, json_text

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


def _input_block(index: int, param: ApiParameter) -> str:
    # the layout json.dumps(fields, indent=4, ensure_ascii=False) gives, whose
    # pure-Python encoder escapes each string with json_text
    body = (
        f'{{\n    "param_name": {json_text(param.param_name)},'
        f'\n    "type": {json_text(param.declared_type.kind)},'
        f'\n    "operation_id": {json_text(param.operation_id)},'
        f'\n    "description": {json_text(param.description)},'
        f'\n    "api_name": {json_text(param.api_name)}\n}}'
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

    Kinds that accept a string lose one layer of matching quotes, and what
    the quotes held is a string: a model completing `example_6 = "94103"`
    yields the string 94103. Any other text is read as a JSON literal.
    """
    text = raw.text.split("\n", 1)[0].strip()
    accepted = ACCEPTED_KINDS[declared_kind]
    quoted = (accepted is None or "string" in accepted) and len(text) >= 2 and text[0] == text[-1] and text[0] in "\"'"
    if quoted:
        text = text[1:-1]
    if not text.strip():
        return None
    return ExampleValue(text, "string") if quoted else ExampleValue.from_raw(text)
