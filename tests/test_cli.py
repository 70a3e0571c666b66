import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from tvdecay import envelopes, measures
from tvdecay.cli import ENVELOPES, _bound_curves, analyze_scenario, main, plan_envelopes
from tvdecay.config import (
    _KEYS,
    load_scenario,
    parse_config_text,
    render_config,
    scenario_from_config,
)
from tvdecay.errors import ConfigError
from tvdecay.measures import tv_distance
from tvdecay._numerics import fit_log_slope

GAUSS_CFG = """
# Gaussian reference scenario
potential.family = gaussian
grid.n_points = 2001
initial.family = step
sim.dt = 0.002
sim.t_end = 2.0
sim.save_every = 50
psi.eta = quadratic
envelopes = poincare_l2, logsob
envelopes.calibrate = true
"""


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_round_trip(self):
        cfg = parse_config_text(GAUSS_CFG)
        echoed = render_config(cfg)
        cfg2 = parse_config_text(echoed)
        assert cfg == cfg2
        scn1 = scenario_from_config(cfg)
        scn2 = scenario_from_config(cfg2)
        assert scn1.potential == scn2.potential
        assert scn1.sim == scn2.sim
        assert scn1.envelope_names == scn2.envelope_names

    def test_missing_key_named(self):
        with pytest.raises(ConfigError) as exc:
            scenario_from_config(parse_config_text("grid.n_points = 101"))
        assert "potential.family" in str(exc.value)

    def test_unknown_section(self):
        with pytest.raises(ConfigError):
            parse_config_text("bogus.key = 1")

    def test_malformed_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("potential.family gaussian")
        assert "line 1" in str(exc.value)

    def test_comments_and_blanks(self):
        cfg = parse_config_text("# comment\n\npotential.family = gaussian # inline\n")
        assert cfg["potential.family"] == "gaussian"


class TestAnalyze:
    def test_gaussian_constants(self, tmp_path):
        cfg = write_cfg(tmp_path, GAUSS_CFG)
        assert main(["analyze", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "constants.json").read_text())
        c = payload["constants"]
        assert c["bakry_emery"]["rho"] == pytest.approx(1.0, abs=1e-9)
        assert c["bakry_emery"]["C_LS"] == pytest.approx(1.0, abs=1e-9)
        lo, hi = c["poincare"]["C_P_interval"]
        assert lo <= 0.5 <= hi

    def test_quartic_has_null_cls(self, tmp_path):
        cfg = write_cfg(tmp_path, GAUSS_CFG.replace(
            "potential.family = gaussian",
            "potential.family = power\npotential.alpha = 4.0"))
        assert main(["analyze", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "constants.json").read_text())
        assert payload["constants"]["bakry_emery"]["C_LS"] is None

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, "grid.n_points = 2001\n")
        assert main(["analyze", cfg, "--out", str(tmp_path)]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)]) == 2

    def test_numeric_failure_exit_code(self, tmp_path):
        # logsob envelope without a log-Sobolev constant: numeric failure (3)
        text = GAUSS_CFG.replace("potential.family = gaussian",
                                 "potential.family = power\npotential.alpha = 4.0")
        cfg = write_cfg(tmp_path, text)
        assert main(["bounds", cfg, "--out", str(tmp_path)]) == 3


class TestBounds:
    def test_columns_and_clipping(self, tmp_path):
        cfg = write_cfg(tmp_path, GAUSS_CFG)
        assert main(["bounds", cfg, "--out", str(tmp_path), "--t-grid", "40"]) == 0
        lines = (tmp_path / "curves.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["t", "bound_poincare_l2", "bound_logsob"]
        data = np.loadtxt(str(tmp_path / "curves.csv"), delimiter=",", skiprows=1)
        assert data.shape == (40, 3)
        assert np.all(data[:, 1:] <= 2.0)
        assert np.all(data[:, 1:] >= 0.0)

    def test_curvature_polynomial_tail_slope(self, tmp_path):
        # q = 2/p with p = 2 must show slope -rho p/(2(p+2)) = -1/4
        text = """
potential.family = gaussian
grid.n_points = 2001
initial.family = step
sim.dt = 0.002
sim.t_end = 20.0
envelopes = curvature
envelope.curvature.beta_form = power
envelope.curvature.beta_c = 1.0
envelope.curvature.beta_q = 1.0
envelopes.calibrate = false
"""
        cfg = write_cfg(tmp_path, text)
        assert main(["bounds", cfg, "--out", str(tmp_path), "--t-grid", "60"]) == 0
        data = np.loadtxt(str(tmp_path / "curves.csv"), delimiter=",", skiprows=1)
        w = data[:, 0] >= 5.0
        slope = fit_log_slope(data[w, 0], data[w, 1])
        assert slope == pytest.approx(-0.25, rel=0.05)


class TestSimulate:
    def test_equilibrium_all_zero(self, tmp_path):
        text = GAUSS_CFG.replace("initial.family = step",
                                 "initial.family = eigen_perturbation\n"
                                 "initial.epsilon = 0.0")
        cfg = write_cfg(tmp_path, text)
        assert main(["simulate", cfg, "--out", str(tmp_path)]) == 0
        data = np.loadtxt(str(tmp_path / "curves.csv"), delimiter=",", skiprows=1)
        assert np.all(np.abs(data[:, 1:]) < 1e-10)

    def test_eigen_perturbation_variance_slope(self, tmp_path):
        text = GAUSS_CFG.replace("initial.family = step",
                                 "initial.family = eigen_perturbation\n"
                                 "initial.epsilon = 0.2")
        cfg = write_cfg(tmp_path, text)
        assert main(["simulate", cfg, "--out", str(tmp_path)]) == 0
        data = np.loadtxt(str(tmp_path / "curves.csv"), delimiter=",", skiprows=1)
        t, var = data[:, 0], data[:, 3]
        w = (t >= 0.5) & (t <= 2.0)
        assert fit_log_slope(t[w], var[w]) == pytest.approx(-2.0, abs=0.05)

    def test_every_column_non_increasing(self, tmp_path):
        cfg = write_cfg(tmp_path, GAUSS_CFG)
        assert main(["simulate", cfg, "--out", str(tmp_path)]) == 0
        data = np.loadtxt(str(tmp_path / "curves.csv"), delimiter=",", skiprows=1)
        for col in range(1, data.shape[1]):
            assert np.all(np.diff(data[:, col]) <= 1e-6)

    def test_columns_finite(self, tmp_path):
        cfg = write_cfg(tmp_path, GAUSS_CFG)
        assert main(["simulate", cfg, "--out", str(tmp_path)]) == 0
        data = np.loadtxt(str(tmp_path / "curves.csv"), delimiter=",", skiprows=1)
        assert np.all(np.isfinite(data))


class TestCompare:
    def test_domination_and_negative_control(self, tmp_path):
        cfg = write_cfg(tmp_path, GAUSS_CFG)
        out = tmp_path / "good"
        assert main(["compare", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        for env in summary["envelopes"].values():
            assert env["domination_fraction"] == 1.0
        # deliberately broken C_P: domination must fail and be visible
        bad_cfg = write_cfg(tmp_path, GAUSS_CFG
                            + "analysis.c_p_override = 0.05\n", "bad.cfg")
        out_bad = tmp_path / "bad"
        assert main(["compare", bad_cfg, "--out", str(out_bad)]) == 0
        bad = json.loads((out_bad / "summary.json").read_text())
        assert bad["envelopes"]["poincare_l2"]["domination_fraction"] < 1.0

    def test_empty_envelope_list(self, tmp_path):
        text = GAUSS_CFG.replace("envelopes = poincare_l2, logsob", "envelopes =")
        cfg = write_cfg(tmp_path, text)
        assert main(["compare", cfg, "--out", str(tmp_path)]) == 0
        header = (tmp_path / "curves.csv").read_text().splitlines()[0]
        assert header == "t,tv,hellinger,variance,entropy,i_psi,v_reverse,e_reverse"

    def test_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path, GAUSS_CFG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["compare", cfg, "--out", str(out1)]) == 0
        assert main(["compare", cfg, "--out", str(out2)]) == 0
        assert (out1 / "curves.csv").read_bytes() == (out2 / "curves.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_truncation_logsob_small_moment(self, tmp_path):
        # int h log+ h dmu is small here, so the inversion bracket reaches u < 1
        text = GAUSS_CFG.replace("initial.family = step",
                                 "initial.family = eigen_perturbation\n"
                                 "initial.epsilon = 0.1").replace(
            "envelopes = poincare_l2, logsob", "envelopes = truncation_logsob")
        assert main(["bounds", write_cfg(tmp_path, text), "--out", str(tmp_path)]) == 0
        raw = write_cfg(tmp_path, text.replace("envelopes.calibrate = true",
                                               "envelopes.calibrate = false"), "raw.cfg")
        assert main(["compare", raw, "--out", str(tmp_path / "raw")]) == 0
        summary = json.loads((tmp_path / "raw" / "summary.json").read_text())
        assert summary["envelopes"]["truncation_logsob"]["domination_fraction"] == 1.0

    def test_tail_ratio_clipped_mass_in_provenance(self, tmp_path):
        text = GAUSS_CFG.replace("initial.family = step",
                                 "initial.family = tail_ratio\ninitial.p = 1.0")
        cfg = write_cfg(tmp_path, text)
        assert main(["compare", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["provenance"]["clipped_mass"] > 0.0

    def test_provenance_echo_reparses(self, tmp_path):
        cfg = write_cfg(tmp_path, GAUSS_CFG)
        assert main(["analyze", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "constants.json").read_text())
        echo = payload["provenance"]["config_echo"]
        scn = scenario_from_config(parse_config_text(echo))
        ref = load_scenario(cfg)
        assert scn.potential == ref.potential
        assert scn.sim == ref.sim
        assert scn.envelope_names == ref.envelope_names


SMALL_CFG = """
potential.family = gaussian
grid.n_points = 201
initial.family = step
sim.dt = 0.01
sim.t_end = 0.1
sim.save_every = 5
envelopes = poincare_l2
"""

# (verb, config lines replacing or extending SMALL_CFG, extra argv, text stderr must name)
BAD_INPUTS = {
    "unknown-key": ("analyze", "grid.npoints = 101", (), "grid.npoints"),
    "unknown-envelope-key": ("analyze", "envelope.poincare_l2.typo_key = 1", (),
                             "envelope.poincare_l2.typo_key"),
    "unread-section": ("compare", "compare.tolerance = 0.1", (), "compare.tolerance"),
    "unknown-envelope-analyze": ("analyze", "envelopes = bogus", (), "bogus"),
    "unknown-envelope-simulate": ("simulate", "envelopes = bogus", (), "bogus"),
    "duplicate-envelope": ("bounds", "envelopes = poincare_l2, poincare_l2", (),
                           "poincare_l2"),
    "non-numeric-envelope": ("bounds", "envelopes = truncation_poincare\n"
                                       "envelope.truncation_poincare.q = abc", (),
                             "envelope.truncation_poincare.q"),
    "non-numeric-analysis": ("analyze", "analysis.c_p_override = abc", (),
                             "analysis.c_p_override"),
    "non-numeric-eta": ("simulate", "psi.eta = power(abc)", (), "psi.eta"),
    "dt-zero": ("analyze", "sim.dt = 0", (), "dt"),
    "dt-nan": ("analyze", "sim.dt = nan", (), "dt"),
    "dt-inf": ("analyze", "sim.dt = inf", (), "dt"),
    "t-end-inf": ("analyze", "sim.t_end = inf", (), "t_end"),
    "t-end-nan": ("analyze", "sim.t_end = nan", (), "t_end"),
    "save-every-zero": ("analyze", "sim.save_every = 0", (), "save_every"),
    "unknown-scheme": ("analyze", "sim.scheme = foo", (), "foo"),
    "missing-potential-table": ("analyze", "potential.family = tabulated\n"
                                           "potential.path = {tmp}/none.csv", (),
                                "potential.path"),
    "missing-initial-table": ("simulate", "initial.family = tabulated\n"
                                          "initial.path = {tmp}/none.csv", (),
                              "initial.path"),
    "t-grid-zero": ("bounds", "", ("--t-grid", "0"), "--t-grid"),
    "initial-typo-analyze": ("analyze", "initial.family = shifted_gausian", (),
                             "shifted_gausian"),
    "initial-typo-simulate": ("simulate", "initial.family = shifted_gausian", (),
                              "shifted_gausian"),
    "bad-beta-value": ("bounds", "envelopes = curvature\n"
                                 "envelope.curvature.beta_form = constant\n"
                                 "envelope.curvature.beta_c = -1", (),
                       "envelope.curvature.beta_c"),
    "positivity-floor-removed": ("simulate", "sim.positivity_floor = 1e-9", (),
                                 "sim.positivity_floor"),
    "c-p-override-negative": ("bounds", "analysis.c_p_override = -1", (),
                              "analysis.c_p_override"),
    "c-ls-override-zero": ("bounds", "envelopes = logsob\nanalysis.c_ls_override = 0", (),
                           "analysis.c_ls_override"),
    "weak-logsob-eps-zero": ("bounds", "envelopes = weak_logsob\n"
                                       "envelope.weak_logsob.eps = 0", (),
                             "envelope.weak_logsob.eps"),
    "weak-logsob-eps-negative": ("bounds", "envelopes = weak_logsob\n"
                                           "envelope.weak_logsob.eps = -1", (),
                                 "envelope.weak_logsob.eps"),
    "initial-cap-zero": ("simulate", "initial.family = tail_ratio\ninitial.cap = 0", (),
                         "initial.cap"),
    "w-osc-huge": ("analyze", "analysis.w_osc = 1e300", (), "analysis.w_osc"),
    "capacity-rho-huge": ("analyze", "analysis.capacity_rho = 1e300", (),
                          "analysis.capacity_rho"),
    "c-p-override-nan": ("bounds", "analysis.c_p_override = nan", (),
                         "analysis.c_p_override"),
    "m-eta-nan": ("bounds", "envelopes = ipsi\nenvelope.ipsi.C_eta = 1\n"
                            "envelope.ipsi.M_eta = nan", (), "envelope.ipsi.M_eta"),
    "epsilon-nan": ("simulate", "initial.family = eigen_perturbation\n"
                                "initial.epsilon = nan", (), "initial.epsilon"),
    "epsilon-inf": ("simulate", "initial.family = eigen_perturbation\n"
                                "initial.epsilon = inf", (), "initial.epsilon"),
    "p-nan": ("simulate", "initial.family = tail_ratio\ninitial.p = nan", (), "initial.p"),
    "shift-nan": ("simulate", "initial.family = shifted_gaussian\n"
                              "initial.shift = nan", (), "initial.shift"),
    "shift-inf": ("simulate", "initial.family = shifted_gaussian\n"
                              "initial.shift = inf", (), "initial.shift"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2(case, tmp_path, capsys):
    verb, lines, argv, needle = BAD_INPUTS[case]
    cfg = dict(line.split(" = ") for line in
               (SMALL_CFG + lines.format(tmp=tmp_path)).splitlines() if line)
    path = write_cfg(tmp_path, "".join(f"{k} = {v}\n" for k, v in cfg.items()))
    try:
        code = main([verb, path, "--out", str(tmp_path / "out"), *argv])
    except SystemExit as exc:        # argparse rejects bad flags this way
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err
    assert needle in err


# potential.sigma -> (exit code, text stderr must name)
EXTREME_SIGMA = {
    "1e-3": (3, "grid.n_points"),    # mu narrower than the grid spacing
    "1e300": (2, "sigma"),           # sigma^2 overflows
}


@pytest.mark.parametrize("sigma", sorted(EXTREME_SIGMA))
def test_extreme_sigma_named(sigma, tmp_path, capsys):
    code, needle = EXTREME_SIGMA[sigma]
    path = write_cfg(tmp_path, SMALL_CFG + f"potential.sigma = {sigma}\n")
    assert main(["simulate", path, "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert needle in err


@pytest.mark.parametrize("verb", ["bounds", "simulate"])
def test_non_finite_start_exits_3(verb, tmp_path, capsys):
    # exp(2 (V(x) - V(x - shift))) overflows, so h0 is inf/nan, not a density
    path = write_cfg(tmp_path, SMALL_CFG + "initial.family = shifted_gaussian\n"
                                           "initial.shift = 1e300\n")
    assert main([verb, path, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "NotADensity" in err and "Traceback" not in err


FUZZ_CFG = """
potential.family = gaussian
grid.n_points = 101
initial.family = step
sim.dt = 0.01
sim.t_end = 0.05
sim.save_every = 1
"""
# numeric key -> (a verb that reads it, the config lines it needs on top of FUZZ_CFG)
FUZZ_KEYS = {
    "potential.sigma": ("simulate", ""),
    "potential.alpha": ("simulate", "potential.family = power"),
    "potential.scale": ("simulate", "potential.family = power\npotential.alpha = 2"),
    "grid.n_points": ("simulate", ""),
    "grid.tail_tol": ("simulate", ""),
    "initial.epsilon": ("simulate", "initial.family = eigen_perturbation"),
    "initial.shift": ("simulate", "initial.family = shifted_gaussian"),
    "initial.p": ("simulate", "initial.family = tail_ratio"),
    "initial.cap": ("simulate", "initial.family = tail_ratio"),
    "sim.dt": ("simulate", ""),
    "sim.t_end": ("simulate", ""),
    "sim.save_every": ("simulate", ""),
    "psi.a": ("simulate", ""),
    "analysis.w_osc": ("bounds", "envelopes = logsob"),
    "analysis.c_p_override": ("bounds", "envelopes = poincare_l2"),
    "analysis.rho_override": ("bounds", "envelopes = curvature"),
    "analysis.c_ls_override": ("bounds", "envelopes = logsob"),
    "analysis.capacity_rho": ("analyze", ""),
    "analysis.capacity_f_const": ("analyze", "analysis.capacity_rho = 2"),
}
FUZZ_KEYS.update({f"envelope.{name}.{extra}": (
    "bounds", f"envelopes = {name}" + ("\nenvelope.ipsi.C_eta = 1" if name == "ipsi" else ""))
    for name, family in ENVELOPES.items() for extra in family.extras})
FUZZ_VALUES = ("-1", "0", "nan", "inf", "1e300")
# sim.t_end = 1e300 asks for about 1e302 solver steps: unbounded work, not a bad input
FUZZ_CASES = [(k, v) for k in sorted(FUZZ_KEYS) for v in FUZZ_VALUES
              if (k, v) != ("sim.t_end", "1e300")]


def test_fuzz_keys_cover_every_numeric_key():
    text_keys = {"potential.family", "potential.path", "initial.family", "initial.path",
                 "sim.scheme", "psi.eta", "envelopes", "envelopes.calibrate"}
    assert set(FUZZ_KEYS) >= _KEYS - text_keys


@pytest.mark.parametrize("key, value", FUZZ_CASES)
def test_config_fuzz(key, value, tmp_path, capsys):
    verb, lines = FUZZ_KEYS[key]
    path = write_cfg(tmp_path, f"{FUZZ_CFG}{lines}\n{key} = {value}\n")
    argv = ("--t-grid", "5") if verb == "bounds" else ()
    code = main([verb, path, "--out", str(tmp_path / "out"), *argv])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


ALL_FAMILIES_CFG = SMALL_CFG + f"""
initial.family = shifted_gaussian
envelopes = {", ".join(ENVELOPES)}
psi.eta = power(1.5)
analysis.capacity_rho = 2.0
analysis.capacity_f_const = 2.0
"""


def test_envelope_params_are_json():
    scn = scenario_from_config(parse_config_text(ALL_FAMILIES_CFG))
    mu = scn.build_measure()
    h0 = scn.build_initial(mu)
    envs, _ = _bound_curves(scn, plan_envelopes(scn), mu, h0, analyze_scenario(scn, mu),
                            np.array([0.5]), tv_distance(mu, h0))
    assert list(envs) == list(ENVELOPES)
    for env in envs.values():
        json.dumps(env.params)      # a callable in params raises TypeError


DENSITIES = ("eigen_perturbation", "step_density", "shifted_gaussian_density",
             "tail_ratio_density", "tabulated_density")
INITIAL_CFG = {"eigen_perturbation": "", "step": "", "shifted_gaussian": "",
               "tail_ratio": "initial.p = 1.0", "tabulated": "initial.path = {tmp}/h.csv"}


def test_rebound_names_are_called(tmp_path, monkeypatch):
    # a profiler wraps envelope_<family> and the density functions by
    # rebinding each name in every tvdecay module; the commands must then
    # call the wrappers
    modules = [m for n, m in sys.modules.items()
               if n == "tvdecay" or n.startswith("tvdecay.")]
    targets = ([(envelopes, f"envelope_{f}") for f in ENVELOPES]
               + [(measures, f) for f in DENSITIES])
    called = set()
    for owner, attr in targets:
        orig = getattr(owner, attr)

        def wrapper(*args, _orig=orig, _attr=attr, **kwargs):
            called.add(_attr)
            return _orig(*args, **kwargs)
        for m in modules:
            for key in [k for k, v in vars(m).items() if v is orig]:
                monkeypatch.setattr(m, key, wrapper)
    (tmp_path / "h.csv").write_text("x,h\n-4,1\n-1,2\n1,1\n4,2\n")
    out = str(tmp_path / "out")
    assert main(["bounds", write_cfg(tmp_path, ALL_FAMILIES_CFG), "--out", out,
                 "--t-grid", "3"]) == 0
    for family, lines in INITIAL_CFG.items():
        text = SMALL_CFG + f"initial.family = {family}\n" + lines.format(tmp=tmp_path)
        assert main(["simulate", write_cfg(tmp_path, text), "--out", out]) == 0, family
    assert called == {attr for _, attr in targets}


def test_readme_example_validates():
    # the example's commented-out optional keys must be valid keys too
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    example = re.sub(r"^# (\S+ *=)", r"\1", example, flags=re.M)
    assert "analysis.capacity_rho" in parse_config_text(example)
    scn = scenario_from_config(parse_config_text(example))
    assert list(plan_envelopes(scn)) == scn.envelope_names
