"""Source hygiene checks that need no linter: a stdlib ``ast`` scan of the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pwperiod"
# __init__.py exists to re-export names it never reads itself
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Local name bound by each import, with its line; ``__future__`` flags excluded."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    """String entries of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, each as ``name (line N)``."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= _exported_names(tree)
    return [f"{name} (line {line})" for name, line in sorted(_imported_names(tree).items())
            if name not in read]


def test_scan_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nfrom typing import Union as U, Sequence\n"
              "from .systems import SIDES\n__all__ = ['SIDES']\n"
              "def f(x: Sequence) -> float:\n    return os.path.sep\n")
    assert unused_imports(source) == ["U (line 4)", "math (line 2)"]


def test_package_has_modules():
    assert {p.name for p in MODULES} >= {"flow.py", "systems.py", "periodseries.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
