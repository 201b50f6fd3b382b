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


def _read_names(tree: ast.Module) -> set[str]:
    """Every name a module reads: loaded names, attributes and imported names."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def dead_private_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level ``_`` functions and classes no module reads, as ``module.name``."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*map(_read_names, trees.values()))
    return sorted(f"{name}.{node.name}" for name, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name.startswith("_") and node.name not in read)


def test_scan_sees_a_dead_helper():
    sources = {"a": "def _used():\n    pass\n\ndef _dead():\n    pass\n\nclass _Gone:\n    pass\n",
               "b": "from .a import _used\n"}
    assert dead_private_helpers(sources) == ["a._Gone", "a._dead"]


def test_no_dead_private_helpers():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert dead_private_helpers(sources) == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _attribute_loads(tree: ast.Module) -> set[str]:
    """Attribute names a module loads, except those it only calls, like ``sys.side(...)``."""
    callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in callees}


def dead_dataclass_fields(package: dict[str, str], readers: list[str]) -> list[str]:
    """Dataclass fields of ``package`` that no attribute load names, as ``module.Class.field``.

    Loads are gathered from the package sources and from ``readers``.
    """
    trees = {name: ast.parse(source) for name, source in package.items()}
    loads = set().union(*map(_attribute_loads, [*trees.values(), *map(ast.parse, readers)]))
    return sorted(f"{name}.{node.name}.{stmt.target.id}"
                  for name, tree in trees.items() for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) and _is_dataclass(node)
                  for stmt in node.body
                  if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                  and stmt.target.id not in loads)


def test_scan_sees_a_dead_field():
    package = {"a": ("from dataclasses import dataclass\n"
                     "@dataclass(frozen=True)\nclass P:\n    kept: int\n    side: str\n"
                     "    gone: float = 0.0\n"
                     "    def side_of(self):\n        return self.kept\n"
                     "class Plain:\n    unread: int\n")}
    reader = "def f(p):\n    p.gone = 1\n    return p.side('upper')\n"
    assert dead_dataclass_fields(package, [reader]) == ["a.P.gone", "a.P.side"]


def test_no_dead_dataclass_fields():
    package = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    tests = [p.read_text() for p in Path(__file__).parent.glob("*.py")]
    assert dead_dataclass_fields(package, tests) == []


# methods that change a dict, list or set in place
_MUTATORS = {"add", "append", "clear", "discard", "extend", "insert", "pop", "popitem",
             "remove", "setdefault", "update"}
_CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _module_containers(tree: ast.Module) -> dict[str, int]:
    """Module-level names bound to a dict, list or set, with their line."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        value = node.value
        if isinstance(value, _CONTAINERS) or (
                isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in {"dict", "list", "set"}):
            found.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    return found


def _mutated_globals(func: ast.AST) -> set[str]:
    """Names a function changes in place and does not bind itself.

    A change in place is an item store or delete, or a call of a method in
    ``_MUTATORS``; arguments and assigned names are the function's own.
    """
    written, local = set(), set()
    for node in ast.walk(func):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            target = node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in _MUTATORS):
            target = node.func.value
        else:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                local.add(node.id)
            elif isinstance(node, ast.arg):
                local.add(node.arg)
            continue
        if isinstance(target, ast.Name):
            written.add(target.id)
    return written - local


def hand_rolled_caches(source: str) -> list[str]:
    """Module-level dicts, lists and sets a function of the module writes to.

    Each is a hand-rolled cache, reported as ``name (line N)``; a
    ``functools`` cache does the same job in one decorator.
    """
    tree = ast.parse(source)
    containers = _module_containers(tree)
    written = set().union(*(_mutated_globals(node) for node in ast.walk(tree)
                            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                 ast.Lambda))))
    return [f"{name} (line {line})" for name, line in sorted(containers.items())
            if name in written]


def test_scan_sees_a_hand_rolled_cache():
    source = ("_CACHE: dict[int, float] = {}\n_TABLE = {'a': {1}}\n_SEEN = set()\n"
              "_SHADOWED = []\n_ORDER = [1, 2]\n_ORDER.append(3)\n"
              "def f(n):\n    w = _CACHE.get(n)\n    if w is None:\n"
              "        w = _CACHE[n] = float(n)\n    return w + len(_TABLE['a'])\n"
              "def g(x, _SHADOWED):\n    _SHADOWED.append(x)\n    return lambda: _SEEN.add(x)\n")
    assert hand_rolled_caches(source) == ["_CACHE (line 1)", "_SEEN (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_hand_rolled_caches(path):
    assert hand_rolled_caches(path.read_text()) == []


def imported_modules(source: str) -> list[str]:
    """Modules a source imports; a relative one keeps its leading dots."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            # ``from . import flow`` imports the module .flow
            found += [base + alias.name for alias in node.names] if node.module is None else [base]
    return found


def imports_any(source: str, modules) -> list[str]:
    """The imports of ``source`` that are one of ``modules`` or inside one of them."""
    return [m for m in imported_modules(source)
            if any(m == top or m.startswith(top + ".") for top in modules)]


def imports_scipy(source: str) -> bool:
    """Whether a module imports scipy or any of its submodules."""
    return bool(imports_any(source, ["scipy"]))


def test_scan_sees_a_scipy_import():
    assert imports_scipy("import numpy\ndef f():\n    from scipy.optimize import brentq\n")
    assert imports_scipy("import scipy.integrate as si\n")
    assert not imports_scipy("import numpy\nfrom .scipy_free import f\nimport scipyish\n")


def test_only_the_ode_clock_imports_scipy():
    # the ODE clock drives scipy's solve_ivp; nothing else at runtime needs it
    assert [p.name for p in MODULES if imports_scipy(p.read_text())] == ["flow.py"]


# the command line parses, renders and writes; the numerics run in analysis.py
CLI_FORBIDDEN = ("numpy", "scipy", ".flow", ".periodseries", ".trigmoments")


def test_scan_sees_a_numeric_import():
    source = ("import numpy as np\nfrom . import flow, errors\nfrom .periodseries import x\n"
              "from .analysis import run_report\nimport numpyish\nfrom .flowchart import y\n")
    assert imports_any(source, CLI_FORBIDDEN) == ["numpy", ".flow", ".periodseries"]


def test_cli_imports_no_numerics():
    assert imports_any((PACKAGE / "cli.py").read_text(), CLI_FORBIDDEN) == []
