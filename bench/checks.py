"""Output checks: every run is verified before its figures are reported.

Each check returns a list of violation messages; an empty list means the
outputs are correct.
"""

from __future__ import annotations

from typing import Any

from icicl.document import ApiDocument, parse_document
from icicl.errors import PointerMiss, SpecSyntaxError
from icicl.enhance import DEFAULT_OVERLOAD_SUFFIX, ORIG_OPERATION_SUFFIX
from icicl.extract import extract_parameters, located_parameters
from icicl.model import ApiParameter, ExampleValue
from icicl.pipeline import TRIVIAL_KINDS, RunManifest
from icicl.postprocess import MAX_EXAMPLES, type_check


def model_bound(params: list[ApiParameter]) -> list[ApiParameter]:
    """Parameters that go to the model: neither boolean nor enum."""
    return [p for p in params if p.declared_type.kind not in TRIVIAL_KINDS]


def _examples_at(out: ApiDocument, pointer: str, mode: str) -> Any:
    node = out.resolve(pointer)
    carrier = node.get("schema") if isinstance(node.get("schema"), dict) else node
    return carrier.get("examples" if mode == "doc" else "enum")


def check_examples(target: ApiDocument, out_bytes: bytes, mode: str) -> list[str]:
    """Every model-bound parameter carries 1-3 examples of its declared type,
    and the output re-parses and re-extracts to the target's source pointers."""
    try:
        out = parse_document(out_bytes)
    except SpecSyntaxError as exc:
        return [f"enriched spec does not re-parse: {exc}"]
    params = extract_parameters(target)
    violations: list[str] = []

    before = [p.source_pointer for p in params]
    after = [p.source_pointer for p in extract_parameters(out)]
    if mode == "fuzz":  # the preserved originals add pointers under /paths/<path><suffix>
        after = [ptr for ptr in after if not ptr.split("/")[2].endswith(DEFAULT_OVERLOAD_SUFFIX)]
    if after != before:
        violations.append(f"re-extracted pointers differ: {len(after)} vs {len(before)} expected")

    for param in model_bound(params):
        try:
            values = _examples_at(out, param.source_pointer, mode)
        except PointerMiss:
            values = None
        if not isinstance(values, list) or not 1 <= len(values) <= MAX_EXAMPLES:
            violations.append(f"{param.source_pointer}: expected 1-{MAX_EXAMPLES} examples, got {values!r}")
            continue
        for value in values:
            if not type_check(ExampleValue.from_python(value), param.declared_type):
                violations.append(f"{param.source_pointer}: {value!r} is not a {param.declared_type.kind}")
    return violations


def check_fuzz_twins(target: ApiDocument, out_bytes: bytes, assigned: set[str]) -> list[str]:
    """Every operation with an assigned parameter keeps its original under the suffixed path."""
    paths = parse_document(out_bytes).root.get("paths", {})
    operations = {(path, method) for param, path, method in located_parameters(target) if param.source_pointer in assigned}
    violations: list[str] = []
    for path, method in sorted(operations):
        twin = paths.get(path + DEFAULT_OVERLOAD_SUFFIX, {}).get(method)
        original_id = target.root["paths"][path][method].get("operationId")
        if not isinstance(twin, dict) or twin.get("operationId") != original_id + ORIG_OPERATION_SUFFIX:
            violations.append(f"{method.upper()} {path}: no {DEFAULT_OVERLOAD_SUFFIX} twin")
    return violations


def check_accounting(target: ApiDocument, records: list[Any], manifest: RunManifest) -> list[str]:
    """Manifest counts add up, and there is one record per model-bound parameter."""
    params = extract_parameters(target)
    counts = manifest.counts
    violations: list[str] = []
    if counts["extracted"] != len(params):
        violations.append(f"manifest extracted {counts['extracted']}, spec has {len(params)}")
    if counts["enriched"] + counts["skipped"] + counts["failed"] != counts["extracted"]:
        violations.append(f"manifest counts do not add up: {counts}")
    expected = [p.source_pointer for p in model_bound(params)]
    got = [r.parameter.source_pointer for r in records]
    if got != expected:
        violations.append(f"{len(got)} records for {len(expected)} model-bound parameters")
    return violations
