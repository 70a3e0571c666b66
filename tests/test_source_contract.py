"""Static checks on the package source.

The package is deterministic: identical configs give byte-identical
outputs, so no module may draw random numbers.  It also keeps one 1-D
minimizer (`_numerics.golden_min_log`), so no module imports scipy.optimize.
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
