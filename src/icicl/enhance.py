"""Writing selected examples back into a spec, for docs or for fuzzing."""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any

from .document import ApiDocument
from .errors import PathCollision, PointerMiss
from .extract import HTTP_METHODS, located_parameters
from .postprocess import ExampleSet

DEFAULT_OVERLOAD_SUFFIX = "__icicl_orig"
ORIG_OPERATION_SUFFIX = "_orig"


@dataclass(frozen=True)
class EnhancementPlan:
    """What to write where: source pointers mapped to their final examples."""

    assignments: dict[str, ExampleSet]


def _resolve_target(doc: ApiDocument, pointer: str) -> tuple[Any, Any]:
    """Returns (node, schema_carrier) for a parameter or body-field pointer.

    Parameter objects carry their schema in a child node; Swagger 2.0
    non-body parameters and body-field properties are their own carrier.
    """
    node = doc.resolve(pointer)
    if not isinstance(node, dict):
        raise PointerMiss(pointer)
    carrier = node.get("schema")
    if not isinstance(carrier, dict):
        carrier = node
    return node, carrier


def enhance_doc(doc: ApiDocument, plan: EnhancementPlan) -> ApiDocument:
    """Documentation mode: each assigned schema gains an `examples` list.

    Pre-existing `example`/`examples` keys on the parameter and its schema are
    replaced, everything else is left alone. Applying the same plan twice is a
    no-op the second time.
    """
    out = ApiDocument(root=copy.deepcopy(doc.root), fmt=doc.fmt)
    for pointer in sorted(plan.assignments):
        examples = plan.assignments[pointer]
        node, carrier = _resolve_target(out, pointer)
        node.pop("example", None)
        node.pop("examples", None)
        carrier.pop("example", None)
        carrier["examples"] = [e.to_python() for e in examples.examples]
    return out


def _paths_of(root: Any) -> dict:
    paths = root.get("paths") if isinstance(root, dict) else None
    return paths if isinstance(paths, dict) else {}


def enhance_fuzz(
    doc: ApiDocument, plan: EnhancementPlan, overload_suffix: str = DEFAULT_OVERLOAD_SUFFIX
) -> ApiDocument:
    """Fuzzing mode: constrain assigned parameters, keep originals reachable.

    The enhanced variant stays at the original path with each assigned
    parameter's schema constrained to `enum: [e1, e2, e3]` and the greedy
    example pinned as `example`. The untouched original moves to the suffixed
    path with "_orig" appended to its operationIds. Operations without any
    assignment stay where they are, unduplicated.
    """
    out = ApiDocument(root=copy.deepcopy(doc.root), fmt=doc.fmt)
    paths = _paths_of(out.root)
    pointers = sorted(plan.assignments)

    assigned_methods: dict[str, set[str]] = {}
    for param, path, method in located_parameters(out):
        if param.source_pointer in plan.assignments:
            assigned_methods.setdefault(path, set()).add(method)

    # snapshot per-path originals and decide which methods get an overload twin
    overloads: dict[str, dict] = {}
    for path, item in paths.items():
        if not isinstance(item, dict):
            continue
        methods = assigned_methods.get(str(path), set())
        if not methods:
            continue
        twin: dict[str, Any] = {}
        for key, value in item.items():
            if key in HTTP_METHODS:
                if key not in methods:
                    continue
                op_copy = copy.deepcopy(value)
                opid = op_copy.get("operationId")
                if isinstance(opid, str) and opid:
                    op_copy["operationId"] = opid + ORIG_OPERATION_SUFFIX
                twin[key] = op_copy
            else:
                twin[key] = copy.deepcopy(value)
        overload_path = str(path) + overload_suffix
        if overload_path in paths:
            raise PathCollision(overload_path)
        overloads[str(path)] = twin

    # constrain the enhanced variants in place
    for pointer in pointers:
        examples = plan.assignments[pointer]
        node, carrier = _resolve_target(out, pointer)
        carrier["enum"] = [e.to_python() for e in examples.examples]
        node["example"] = examples.examples[0].to_python()

    # rebuild paths so each overload twin follows its original
    rebuilt: dict[Any, Any] = {}
    for path, item in paths.items():
        rebuilt[path] = item
        if str(path) in overloads:
            rebuilt[str(path) + overload_suffix] = overloads[str(path)]
    out.root["paths"] = rebuilt
    return out
