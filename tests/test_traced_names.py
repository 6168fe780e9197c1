"""The benchmark's tracer patches icicl names from outside; each must exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _patches():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module.PATCHES


@pytest.mark.parametrize("target, attribute, span", _patches())
def test_traced_name_resolves(target, attribute, span):
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    if cls:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attribute, None)), f"{span}: {target}.{attribute} is gone"
