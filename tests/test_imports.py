"""Each icicl module imports on its own, so no import cycle hides behind another module's import order."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Forget every icicl module before each import, so each one starts from nothing.
_IMPORT_EACH = """
import importlib
import sys

for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m == "icicl" or m.startswith("icicl.")]:
        del sys.modules[loaded]
    importlib.import_module(name)
"""


def test_each_module_imports_alone():
    names = sorted("icicl" if p.stem == "__init__" else f"icicl.{p.stem}" for p in (SRC / "icicl").glob("*.py"))
    assert len(names) > 1
    path = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_EACH, *names],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
