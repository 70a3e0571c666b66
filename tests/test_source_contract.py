"""Static checks on the package source.

The package is deterministic: identical configs give byte-identical
outputs, so no module may draw random numbers.  It also keeps one 1-D
minimizer (`_numerics.golden_min_log`), so no module imports scipy.optimize.
scipy itself is imported only inside the functions that use it: at module
level it would add about a quarter second to every command, `import
tvdecay.cli` included.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "tvdecay").glob("*.py"))
BANNED_MODULES = ("numpy.random", "scipy.optimize")


def _dotted(node) -> str:
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def _violations(tree) -> list:
    found = []
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
        elif isinstance(node, ast.Attribute):
            names = [_dotted(node).replace("np.", "numpy.", 1)]
        found += [f"line {node.lineno}: {name}" for name in names
                  if any(name == m or name.startswith(m + ".") for m in BANNED_MODULES)]
        if isinstance(node, ast.Call) and _dotted(node.func).endswith("default_rng"):
            found.append(f"line {node.lineno}: default_rng call")
    return found


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_randomness_or_scipy_optimize(path):
    assert _violations(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize("snippet", [
    "import numpy.random", "from numpy.random import default_rng",
    "from numpy import random", "import scipy.optimize as so",
    "from scipy.optimize import minimize_scalar", "from scipy import optimize",
    "x = np.random.normal()", "rng = default_rng(0)"])
def test_checker_catches(snippet):
    assert _violations(ast.parse(snippet))


def _import_time_scipy(tree) -> list:
    """scipy imports that run when the module is imported: every one outside
    a function body (class bodies and module-level if/try blocks included)."""
    found, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        found += [f"line {node.lineno}: {name}" for name in names
                  if name == "scipy" or name.startswith("scipy.")]
        todo.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_scipy_imported_only_inside_functions(path):
    assert _import_time_scipy(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize("snippet", [
    "import scipy", "import scipy.linalg", "import numpy, scipy.linalg as sl",
    "from scipy.interpolate import PchipInterpolator", "from scipy import linalg",
    "class A:\n    from scipy.linalg import solve_banded",
    "if True:\n    import scipy.interpolate",
    "try:\n    from scipy.linalg import lapack\nexcept ImportError:\n    pass"])
def test_scipy_checker_catches(snippet):
    assert _import_time_scipy(ast.parse(snippet))


@pytest.mark.parametrize("snippet", [
    "def f():\n    from scipy.linalg import eigh_tridiagonal",
    "class A:\n    def f(self):\n        import scipy.interpolate",
    "f = lambda: __import__('scipy')", "import numpy as np", "import scipyx",
    "from . import measures"])
def test_scipy_checker_allows(snippet):
    assert _import_time_scipy(ast.parse(snippet)) == []
