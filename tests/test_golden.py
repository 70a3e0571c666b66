"""Golden outputs: a small CLI matrix must reproduce tests/golden/ byte for byte.

The matrix covers every envelope family (ipsi both from the capacity check
and from explicit constants), each in at least one compare case so that its
summary.json verdict is pinned, both calibration modes, every phi family and
beta_form, the envelope extras and every analysis.* override, on grids of at
most 401 points so the whole module runs in about a second.

Regenerate the files (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py tests/golden
"""

import sys
from pathlib import Path

import pytest

from tvdecay.cli import main
from tvdecay.config import ENVELOPES

GOLDEN = Path(__file__).parent / "golden"
OUTPUTS = {"analyze": ("constants.json",), "bounds": ("curves.csv",),
           "simulate": ("curves.csv",), "compare": ("curves.csv", "summary.json")}

BASE = {
    "potential.family": "gaussian",
    "grid.n_points": "401",
    "initial.family": "shifted_gaussian",
    "initial.shift": "0.5",
    "sim.dt": "0.01",
    "sim.t_end": "1.0",
    "sim.save_every": "10",
}
# bounds evaluates no simulation, so it can afford the decaying part of each curve
BOUNDS_T_END = {"sim.t_end": "30.0"}
TEN = ("poincare_l2, truncation_poincare, weak_poincare, orlicz, logsob, "
       "truncation_logsob, weak_logsob, restricted_logsob, hellinger, curvature")
EXP1 = {"potential.family": "power", "potential.alpha": "1",
        "analysis.c_ls_override": "1.0"}
CAPACITY = {"psi.eta": "power(1.5)", "analysis.capacity_rho": "2.0",
            "analysis.capacity_f_const": "2.0"}


def _envelopes(spec: dict, calibrate: str = "false") -> dict:
    """Config lines for envelopes {name: {option: value}}."""
    cfg = {"envelopes": ", ".join(spec), "envelopes.calibrate": calibrate}
    for name, opts in spec.items():
        cfg.update({f"envelope.{name}.{k}": v for k, v in opts.items()})
    return cfg


POWER_Q = {"phi": "power", "q": "2.0"}
LOGBETA = {"phi": "logbeta", "beta_exp": "2.0"}
LINEAR = {"phi": "linear"}
LOGLOG = {"phi": "loglog"}
B_CONST = {"beta_form": "constant", "beta_c": "0.8"}
B_POWER = {"beta_form": "power", "beta_c": "0.9", "beta_q": "0.5"}
B_LOGPOWER = {"beta_form": "logpower", "beta_d": "0.7", "beta_r": "1.5", "beta_s0": "3.0"}
T12 = ("--t-grid", "12")

# name -> (verb, config on top of BASE, extra argv)
CASES = {
    "analyze-gauss": ("analyze", {}, ("--seed", "7")),
    "analyze-exp1-wosc": ("analyze", {**EXP1, "analysis.w_osc": "0.2"}, ()),
    "analyze-overrides": ("analyze", {"analysis.c_p_override": "0.7",
                                      "analysis.rho_override": "0.5",
                                      "analysis.c_ls_override": "1.5"}, ()),
    "analyze-capacity": ("analyze", CAPACITY, ()),
    "analyze-powerlog": ("analyze", {"potential.family": "power_log",
                                     "potential.alpha": "1.5"}, ()),
    "analyze-quartic": ("analyze", {"potential.family": "power", "potential.alpha": "4",
                                    "potential.scale": "1.5", "grid.tail_tol": "1e-12"},
                        ()),
    "bounds-ten-calibrated": ("bounds", {"envelopes": TEN}, T12),
    "bounds-exp1-ten": ("bounds", {**EXP1, "initial.family": "step", "envelopes": TEN,
                                   "envelopes.calibrate": "false"}, T12),
    "bounds-exp1-ten-dense": ("bounds", {**EXP1, "initial.family": "step", "envelopes": TEN,
                                         "envelopes.calibrate": "false"},
                              ("--t-grid", "400")),
    "bounds-one-point": ("bounds", {"envelopes": "poincare_l2, logsob"}, ("--t-grid", "1")),
    "bounds-ipsi-capacity": ("bounds", {**CAPACITY, "envelopes": "ipsi"}, T12),
    "bounds-ipsi-explicit": ("bounds", {"psi.eta": "entropy",
                                        **_envelopes({"ipsi": {"C_eta": "0.8",
                                                               "M_eta": "1.5"}})}, T12),
    "bounds-phi-a": ("bounds", _envelopes({
        "truncation_poincare": LOGBETA, "weak_poincare": LINEAR, "orlicz": LOGLOG,
        "truncation_logsob": POWER_Q, "weak_logsob": LOGBETA,
        "restricted_logsob": LINEAR, "hellinger": LOGLOG}), T12),
    "bounds-phi-b": ("bounds", _envelopes({
        "truncation_poincare": LINEAR, "weak_poincare": LOGLOG,
        "truncation_logsob": LOGBETA, "weak_logsob": POWER_Q,
        "restricted_logsob": LOGBETA, "hellinger": POWER_Q}, "true"), T12),
    "bounds-beta-a": ("bounds", _envelopes({
        "weak_poincare": B_CONST, "orlicz": B_LOGPOWER, "weak_logsob": B_POWER,
        "restricted_logsob": B_POWER, "hellinger": B_LOGPOWER, "curvature": B_CONST}),
        T12),
    "bounds-beta-b": ("bounds", _envelopes({
        "weak_poincare": B_LOGPOWER, "weak_logsob": B_CONST,
        "restricted_logsob": B_LOGPOWER, "hellinger": B_CONST, "curvature": B_POWER}),
        T12),
    "bounds-extras": ("bounds", _envelopes({
        "orlicz": {**POWER_Q, **B_POWER, "C": "2.5"},
        "weak_logsob": {"eps": "0.2"}}), T12),
    "simulate-gauss": ("simulate", {}, ()),
    "simulate-quartic-spectral": ("simulate", {"potential.family": "power",
                                               "potential.alpha": "4",
                                               "initial.family": "step",
                                               "psi.eta": "entropy",
                                               "sim.scheme": "spectral"}, ()),
    "compare-calibrated": ("compare", {"envelopes": "poincare_l2, weak_poincare, "
                                                    "truncation_logsob, curvature"}, ()),
    "compare-raw": ("compare", {"envelopes": "poincare_l2, truncation_poincare, logsob",
                                "envelopes.calibrate": "false",
                                "initial.family": "eigen_perturbation",
                                "initial.epsilon": "0.3"}, ()),
    "compare-negative-control": ("compare", {"envelopes": "poincare_l2, curvature",
                                             "analysis.c_p_override": "0.05"}, ()),
    "compare-tail-ratio": ("compare", {"envelopes": "poincare_l2, hellinger",
                                       "initial.family": "tail_ratio",
                                       "initial.p": "1.0", "initial.cap": "20.0"}, ()),
    "compare-empty": ("compare", {"envelopes": ""}, ()),
    "compare-entropy-spectral": ("compare", {"envelopes": "logsob, truncation_poincare",
                                             "psi.eta": "entropy",
                                             "sim.scheme": "spectral",
                                             "initial.family": "step"}, ("--seed", "3")),
    "compare-psi-power": ("compare", {"envelopes": "weak_poincare, hellinger",
                                      "psi.eta": "power(1.5)", "psi.a": "2.5",
                                      "analysis.w_osc": "0.1",
                                      "analysis.rho_override": "0.8"}, ()),
    "compare-ipsi-capacity": ("compare", {**CAPACITY, "envelopes": "ipsi, logsob"}, ()),
    "compare-exp1-step": ("compare", {**EXP1, "initial.family": "step",
                                      "envelopes": "restricted_logsob, weak_logsob, "
                                                   "truncation_logsob",
                                      "envelopes.calibrate": "false"}, ()),
    "compare-orlicz": ("compare", {"envelopes": "orlicz, poincare_l2",
                                   "initial.family": "step",
                                   "envelopes.calibrate": "false"}, ()),
}


def run_case(name: str, out: Path) -> int:
    verb, extra, argv = CASES[name]
    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "scenario.cfg"
    lines = {**BASE, **(BOUNDS_T_END if verb == "bounds" else {}), **extra}
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()), encoding="utf-8")
    try:
        return main([verb, str(cfg), "--out", str(out), *argv])
    finally:
        cfg.unlink()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(name, tmp_path):
    assert run_case(name, tmp_path) == 0
    for fname in OUTPUTS[CASES[name][0]]:
        assert (tmp_path / fname).read_bytes() == (GOLDEN / name / fname).read_bytes(), fname


def test_every_family_has_a_compare_case():
    # valid_from and the domination verdict reach an output only through compare
    compared = {name.strip() for verb, extra, _ in CASES.values() if verb == "compare"
                for name in extra.get("envelopes", "").split(",")}
    assert sorted(set(ENVELOPES) - compared) == []


if __name__ == "__main__":
    root = Path(sys.argv[1])
    for case in sorted(CASES):
        code = run_case(case, root / case)
        print(case, code)
        if code != 0:
            sys.exit(f"{case} exited {code}")
