"""Which scipy modules the CLI loads.

`scipy.interpolate` (which loads `scipy.optimize`) and `scipy.linalg` take
about a quarter second to import, several times the rest of the package.  The
package imports them only inside the functions that run them: tabulated
inputs (PCHIP) and `spectral_gap`.  `evolve` loads scipy's LAPACK extension
`scipy.linalg._flapack` on its own, without the `scipy.linalg` package.  So
`import tvdecay.cli`, `analyze` and `bounds` load no scipy at all, and
`simulate` and `compare` load LAPACK but neither the `scipy.linalg` package
nor PCHIP, under either `sim.scheme`: the spectral flow runs on implicit
Euler's own `dpttrf`/`dpttrs` solver.  The LAPACK extension is found without
running scipy's own `__init__`, so it is the only scipy module they load.  The
package's records are plain classes, so no command loads `dataclasses` either,
and `json` is imported only by the two verbs that write JSON, analyze and
compare.  Each check runs in a fresh interpreter, since the test process
itself has imported scipy long before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.interpolate", "scipy.linalg", "scipy.optimize")

SCENARIO = """
grid.n_points = 201
initial.family = shifted_gaussian
sim.dt = 0.01
sim.t_end = 0.1
sim.save_every = 5
sim.scheme = {scheme}
psi.eta = power(1.5)
analysis.c_ls_override = 1.0
analysis.capacity_rho = 2.0
analysis.capacity_f_const = 2.0
envelopes = {envelopes}
"""
POTENTIALS = {"gaussian": "potential.family = gaussian",
              "power": "potential.family = power\npotential.alpha = 1"}

# Prints the heavy scipy modules loaded after the import, after analyze and
# bounds on every scenario, and after simulate and compare, as one JSON object.
# Under "scipy" it lists every scipy module loaded after each of those stages,
# and under "dataclasses" the import and each verb run after which
# `dataclasses` was loaded.
CHILD = """
import json, sys
def heavy():
    return sorted(m for m in sys.modules if m.startswith({heavy!r}))
def scipy():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import tvdecay.cli as cli
seen = {{"import": heavy(), "scipy": {{"import": scipy()}}, "dataclasses": []}}
if "dataclasses" in sys.modules:
    seen["dataclasses"].append("import")
for verbs in (("analyze", "bounds"), ("simulate", "compare")):
    for path in sys.argv[1:]:
        for verb in verbs:
            assert cli.main([verb, path, "--out", path + "-" + verb]) == 0, (verb, path)
            if "dataclasses" in sys.modules:
                seen["dataclasses"].append(verb + " " + path)
    seen["+".join(verbs)] = heavy()
    seen["scipy"]["+".join(verbs)] = scipy()
print(json.dumps(seen))
"""


def _loaded(tmp_path, scheme="implicit_euler") -> dict:
    from tvdecay.config import ENVELOPES

    paths = []
    for name, lines in POTENTIALS.items():
        path = tmp_path / f"{name}.cfg"
        path.write_text(lines + SCENARIO.format(envelopes=", ".join(ENVELOPES),
                                                scheme=scheme))
        paths.append(str(path))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", CHILD.format(heavy=HEAVY), *paths],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


# Runs the verbs given after the config path in order, and prints, one word a
# line, whether `json` was loaded after the import and after each verb.  It
# imports no json itself.
JSON_CHILD = """
import sys
import tvdecay.cli as cli
print("json" in sys.modules)
path, verbs = sys.argv[1], sys.argv[2:]
for verb in verbs:
    assert cli.main([verb, path, "--out", path + "-" + verb]) == 0, verb
    print("json" in sys.modules)
"""


@pytest.mark.parametrize("verbs", [("bounds", "simulate", "compare"), ("analyze",)])
def test_json_loads_only_where_json_is_written(verbs, tmp_path):
    """`json` is imported by `write_json`: the import, bounds and simulate
    leave it unloaded, and analyze and compare, which write JSON, load it."""
    from tvdecay.config import ENVELOPES

    path = tmp_path / "power.cfg"
    path.write_text(POTENTIALS["power"] + SCENARIO.format(envelopes=", ".join(ENVELOPES),
                                                          scheme="implicit_euler"))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", JSON_CHILD, str(path), *verbs],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    flags = [word for word in done.stdout.split() if word in ("True", "False")]
    loaded = dict(zip(("import",) + verbs, flags))
    assert len(flags) == len(loaded) == len(verbs) + 1
    want = {"import": "False", "bounds": "False", "simulate": "False",
            "analyze": "True", "compare": "True"}
    assert loaded == {stage: want[stage] for stage in loaded}


def test_cli_loads_scipy_only_where_it_runs(tmp_path):
    seen = _loaded(tmp_path)
    assert seen["import"] == []
    assert seen["analyze+bounds"] == []
    assert "scipy.linalg" not in seen["simulate+compare"]
    assert "scipy.linalg._flapack" in seen["simulate+compare"]
    assert not any(m.startswith("scipy.interpolate") for m in seen["simulate+compare"])


def test_cli_loads_no_dataclasses_and_no_scipy_package(tmp_path):
    """Start-up stays light: neither `dataclasses` nor scipy's `__init__`
    (the top-level `scipy` package, which loads `scipy._lib`) runs on any
    command, and LAPACK's extension is the one scipy module loaded."""
    seen = _loaded(tmp_path)
    assert seen["dataclasses"] == []
    assert seen["scipy"] == {"import": [], "analyze+bounds": [],
                             "simulate+compare": ["scipy.linalg._flapack"]}


def test_spectral_scheme_loads_only_the_lapack_extension(tmp_path):
    """`simulate` and `compare` under `sim.scheme = spectral` take `dpttrf` and
    `dpttrs` from scipy's LAPACK extension, loaded without the `scipy.linalg`
    package."""
    seen = _loaded(tmp_path, "spectral")
    assert seen["scipy"] == {"import": [], "analyze+bounds": [],
                             "simulate+compare": ["scipy.linalg._flapack"]}
    assert seen["dataclasses"] == []
