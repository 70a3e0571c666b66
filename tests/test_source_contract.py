"""Static checks on the package source.

The package is deterministic: identical configs give byte-identical
outputs, so no module may draw random numbers.  It also keeps one 1-D
minimizer (`_numerics.golden_min_log`), so no module imports scipy.optimize.
scipy itself is imported only inside the functions that use it: at module
level it would add about a quarter second to every command, `import
tvdecay.cli` included.  Config keys are read in `config.py` alone, whose
tables declare every key with its default and range.  h' is taken on the
generator's one spacing: every np.gradient call passes a `.dx`, never a
grid array, on which numpy runs its non-uniform stencil.  Every public
top-level definition, and every public method of a public class, has a
caller in the package or the benchmark, unless `UNWIRED` names it with the
reason.  A test that skips without a module it `pytest.importorskip`s names
it in pyproject's `test` extra, unless the standard library holds it.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
SOURCES = sorted((ROOT / "src" / "tvdecay").glob("*.py"))
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


KEY_READERS = ("get_str", "get_number", "read_form", "read_keys")


def _key_reads(tree) -> list:
    """Calls of the config module's key readers, by any name path."""
    return [f"line {node.lineno}: {_dotted(node.func)}" for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and _dotted(node.func).rpartition(".")[2] in KEY_READERS]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "config.py"],
                         ids=lambda p: p.name)
def test_keys_read_only_in_config(path):
    # config.py alone reads keys, so a key's default and range live in one
    # table and one module decides which keys a scenario reads
    assert _key_reads(ast.parse(path.read_text(), filename=str(path))) == []


def test_key_read_checker():
    assert _key_reads(ast.parse("x = get_number(cfg, 'a.b', 1.0)\n"
                                "y = config.get_str(cfg, 'a.c')\n"
                                "read_keys(cfg, 'a.', KEYS)\n"
                                "z = cfg_mod.read_form(cfg, 'e.', 'phi', PHIS)\n")) == [
        "line 1: get_number", "line 2: config.get_str", "line 3: read_keys",
        "line 4: cfg_mod.read_form"]
    assert _key_reads(ast.parse("read_keys\nget_number\nkeys = read_keys_of(cfg)\n")) == []


GRADIENTS = ("gradient", "_gradient")


def _gradient_spacings(tree) -> list:
    """np.gradient calls, and calls of measures' in-place copy, whose spacing
    (the second positional argument) is not an attribute named dx."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _dotted(node.func).rpartition(".")[2] in GRADIENTS:
            spacing = node.args[1] if len(node.args) > 1 else None
            if not (isinstance(spacing, ast.Attribute) and spacing.attr == "dx"):
                found.append(f"line {node.lineno}: {_dotted(node.func)}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_gradients_take_the_dx_spacing(path):
    assert _gradient_spacings(ast.parse(path.read_text(), filename=str(path))) == []


def test_gradient_spacing_checker():
    assert _gradient_spacings(ast.parse(
        "a = np.gradient(f, mu.grid)\nb = numpy.gradient(f)\nc = _gradient(h, grid, out)\n"
        "d = np.gradient(f, mu.dx, axis=-1)\ne = _gradient(h, self.dx, work)\n"
        "g = np.gradient(f, dx)\nh = gradient(f, x=mu.dx)\n")) == [
        "line 1: np.gradient", "line 2: numpy.gradient", "line 3: _gradient",
        "line 6: np.gradient", "line 7: gradient"]
    assert _gradient_spacings(ast.parse("m.gradient_norm(f, grid)\nx.dx\n")) == []


# Public definitions that no command and no benchmark workload reaches, each
# with the reason it stays.  Wiring one in means deleting it here.
UNWIRED = {
    "c_pinsker": "c_psi for the Pinsker check along a flow, not yet reported",
    "spectral_gap": "acceptance-gated exact C_P of the discrete generator",
    "truncation_logsob_k_optimized": "acceptance-gated reference: the direct infimum over K",
    "pinsker_check": "the Pinsker check along a flow, not yet reported",
    "hellinger_eval": "the direct Hellinger decay check, not yet reported",
    "reverse_diagnostics": "the reversed-roles check, not yet reported",
    "weak_poincare_beta_from_tails": "the tail beta, not yet a beta form",
    "drift_tail_beta": "the drift-tail beta, not yet a beta form",
    "eta_fsobolev": "the F-Sobolev eta of the |x|^alpha potentials, for the I_psi route",
}


def _public_definitions() -> dict:
    """node -> its name, for each public top-level def and class in the
    package and each public method of such a class."""
    found = {}
    for path in SOURCES:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, (*FUNCTIONS, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found[node] = node.name
            if isinstance(node, ast.ClassDef):
                found.update((m, m.name) for m in node.body
                             if isinstance(m, FUNCTIONS) and not m.name.startswith("_"))
    return found


def _referenced(tree, defined: dict) -> set:
    """Names read, or attributes taken, anywhere in `tree` outside a
    definition of that same name (an import is not a reference).  Names are
    all the scan sees, so a reference counts for every definition of its
    name: `PotentialSpec.power` and `BetaFunction.power` share their callers."""
    found = set()

    def visit(node, own):
        own = defined.get(node, own)
        if isinstance(node, ast.Name) and node.id != own:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != own:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, own)
    visit(tree, None)
    return found


def test_every_public_definition_has_a_caller():
    defined = _public_definitions()
    callers = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "benchmark").rglob("*.py")])
    referenced = set().union(*(_referenced(ast.parse(p.read_text(), filename=str(p)), defined)
                               for p in callers))
    assert {name for name in defined.values() if name not in referenced} == set(UNWIRED)


def test_caller_check_ignores_own_body_and_imports():
    tree = ast.parse("from .m import f, C\n"
                     "def f(n):\n    return f(n - 1)\n"
                     "class C:\n    def g(self):\n        return self.g()\n"
                     "    def k(self):\n        return 1\n"
                     "x = m.C().k()\n")
    cls = tree.body[2]
    defined = {node: node.name for node in (tree.body[1], cls, *cls.body)}
    assert _referenced(tree, defined) & {"f", "C", "g", "k"} == {"C", "k"}


def _skipped_imports(tree) -> set:
    """The top-level modules that a file loads with pytest.importorskip."""
    return {node.args[0].value.partition(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _dotted(node.func) == "pytest.importorskip"
            and node.args and isinstance(node.args[0], ast.Constant)}


def test_skipped_imports_are_in_the_test_extra():
    # tomllib is standard from Python 3.11 on; requires-python reaches back to 3.10
    tests = sorted((ROOT / "tests").glob("*.py"))
    skipped = set().union(*(_skipped_imports(ast.parse(p.read_text(), filename=str(p)))
                            for p in tests))
    third_party = skipped - set(sys.stdlib_module_names) - {"tomllib"}
    extra = re.search(r"^test = (\[.*\])$", (ROOT / "pyproject.toml").read_text(), re.M)
    named = {re.match(r"[\w.-]+", req).group(0).lower().replace("-", "_")
             for req in ast.literal_eval(extra.group(1))}
    assert "mpmath" in third_party
    assert third_party - named == set()


def test_skipped_import_finder():
    tree = ast.parse('a = pytest.importorskip("x.y")\nb = importorskip("z")\n'
                     'c = pytest.importorskip(name)\n')
    assert _skipped_imports(tree) == {"x"}
