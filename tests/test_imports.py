"""Import hygiene of src/icicl.

Each module imports on its own, so no import cycle hides behind another
module's import order, the third-party packages the modules import are
exactly the ones pyproject.toml declares, and every name a module imports, or
binds at module level as private, is used in it.
"""

import ast
import importlib.metadata
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

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


def _distribution_key(name):
    """A distribution name as PEP 503 compares them."""
    return re.sub(r"[-_.]+", "-", name).lower()


def declared_dependencies():
    """The distribution names of pyproject.toml's `dependencies` (tomllib is not in Python 3.10)."""
    block = re.search(r"^dependencies = \[(.*?)\]", (REPO / "pyproject.toml").read_text(encoding="utf-8"), re.M | re.S)
    return {_distribution_key(re.match(r"[A-Za-z0-9._-]+", spec).group()) for spec in re.findall(r'"([^"]+)"', block[1])}


def imported_top_level_modules():
    """Every top-level module named by an absolute import in src/icicl."""
    names = set()
    for path in (SRC / "icicl").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names


def test_third_party_imports_are_the_declared_dependencies():
    third_party = imported_top_level_modules() - set(sys.stdlib_module_names) - {"icicl"}
    providers = importlib.metadata.packages_distributions()
    # a module no installed distribution provides is compared under its own name, so it shows as undeclared
    imported = {_distribution_key(dist) for module in third_party for dist in providers.get(module, [module])}
    assert imported == declared_dependencies()


def test_every_imported_name_is_used():
    """Code that is deleted can leave its imports behind; a name counts as used where
    the module's syntax tree names it, annotations included, but not inside a string.
    """
    unused = []
    for path in sorted((SRC / "icicl").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
                unused += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in used]
    assert unused == []


def module_level_names(tree):
    """The names a module's top-level statements bind, except by import."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (name.id for name in ast.walk(target) if isinstance(name, ast.Name))


def test_every_private_module_level_name_is_used():
    """A private name (`_x`) is the module's own, so code that stops reading it
    should delete it; reading means a load of the name anywhere in the module.
    """
    unused = []
    for path in sorted((SRC / "icicl").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        private = {name for name in module_level_names(tree) if name.startswith("_") and not name.startswith("__")}
        unused += [f"{path.name} {name}" for name in sorted(private - read)]
    assert unused == []
