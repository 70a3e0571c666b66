import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from tvdecay import config, envelopes, measures, psi, simulate
from tvdecay.cli import _bound_curves, analyze_scenario, main, write_csv
from tvdecay.config import (
    BETA_FORMS,
    ENVELOPES,
    INITIAL,
    PHIS,
    POTENTIALS,
    load_scenario,
    parse_config_text,
    render_config,
    scenario_from_config,
)
from tvdecay.errors import ConfigError
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


def _key(line):
    return line.split("#", 1)[0].partition("=")[0].strip()


def merge_cfg(*texts):
    """The config lines of `texts` in order, where a text that sets a key drops
    the earlier texts' lines of it: a config sets each key once, so an override
    replaces the line it overrides."""
    lines = []
    for text in texts:
        new = [line for line in text.splitlines() if line.strip()]
        keys = {_key(line) for line in new} - {""}
        lines = [line for line in lines if _key(line) not in keys] + new
    return "".join(f"{line}\n" for line in lines)


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
        assert list(scn1.envelopes) == list(scn2.envelopes) == ["poincare_l2", "logsob"]

    def test_key_set_twice_names_both_lines(self):
        # however it is spaced, a second line of a key would silently win
        with pytest.raises(ConfigError, match=r"^line 3: key 'sim.dt' is already set on line 1$"):
            parse_config_text("sim.dt=0.1\n\n  sim.dt  =  0.01 # finer\n")

    def test_missing_key_named(self):
        with pytest.raises(ConfigError) as exc:
            scenario_from_config(parse_config_text("grid.n_points = 101"))
        assert "potential.family" in str(exc.value)

    def test_unknown_section(self):
        # no key list: a key is unknown when nothing reads it while loading
        with pytest.raises(ConfigError) as exc:
            scenario_from_config(parse_config_text("potential.family = gaussian\n"
                                                   "bogus.key = 1"))
        assert "'bogus.key'" in str(exc.value)

    def test_malformed_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("potential.family gaussian")
        assert "line 1" in str(exc.value)

    def test_comments_and_blanks(self):
        cfg = parse_config_text("# comment\n\npotential.family = gaussian # inline\n")
        assert cfg["potential.family"] == "gaussian"

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        # some editors start a UTF-8 file with a byte-order mark
        text = b"potential.family = gaussian\ngrid.n_points = 101\n"
        paths = {}
        for name, head in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
            out = tmp_path / name
            out.mkdir()
            paths[name] = out / "scenario.cfg"
            paths[name].write_bytes(head + text)
            assert main(["analyze", str(paths[name]), "--out", str(out)]) == 0
        marked, plain = (load_scenario(str(paths[name])) for name in ("marked", "plain"))
        assert marked.config == plain.config
        assert marked.potential == plain.potential and marked.n_points == plain.n_points
        assert ((tmp_path / "marked" / "constants.json").read_bytes()
                == (tmp_path / "plain" / "constants.json").read_bytes())


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

    def test_slope_of_a_run_saved_at_its_ends(self, tmp_path):
        # 100 steps saved every 1000: the saves at t = 0 and t = 1 alone, and
        # the slopes fit both (one save at t >= t_end/2 gave log(TV(1))/2)
        text = ("potential.family = gaussian\ngrid.n_points = 201\n"
                "initial.family = shifted_gaussian\nsim.dt = 0.01\nsim.t_end = 1.0\n"
                "sim.save_every = 1000\nenvelopes = poincare_l2\n")
        assert main(["compare", write_cfg(tmp_path, text), "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        data = np.loadtxt(str(tmp_path / "curves.csv"), delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], [0.0, 1.0])
        tv_slope, bound_slope = (math.log(col[1] / col[0]) for col in (data[:, 1], data[:, -1]))
        assert tv_slope == pytest.approx(-0.975, abs=1e-3)
        assert summary["tv_fitted_slope"] == pytest.approx(tv_slope, rel=1e-9)
        assert summary["envelopes"]["poincare_l2"]["fitted_slope"] == pytest.approx(
            bound_slope, rel=1e-9)

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

    def test_analyze_reports_the_clipped_mass(self, tmp_path):
        # analyze builds the start as well, so its provenance gives the mass
        # that the start's cap removed, the same number as compare's
        cfg = write_cfg(tmp_path, "potential.family = gaussian\ngrid.n_points = 401\n"
                                  "initial.family = tail_ratio\ninitial.cap = 5\n"
                                  "sim.dt = 0.01\nsim.t_end = 0.1\n")
        assert main(["analyze", cfg, "--out", str(tmp_path)]) == 0
        assert main(["compare", cfg, "--out", str(tmp_path)]) == 0
        analyzed = json.loads((tmp_path / "constants.json").read_text())["provenance"]
        compared = json.loads((tmp_path / "summary.json").read_text())["provenance"]
        assert analyzed["clipped_mass"] == compared["clipped_mass"] > 0.1

    def test_provenance_echo_reparses(self, tmp_path):
        cfg = write_cfg(tmp_path, GAUSS_CFG)
        assert main(["analyze", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "constants.json").read_text())
        echo = payload["provenance"]["config_echo"]
        scn = scenario_from_config(parse_config_text(echo))
        ref = load_scenario(cfg)
        assert scn.potential == ref.potential
        assert scn.sim == ref.sim
        assert list(scn.envelopes) == list(ref.envelopes)


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
    # keys of a family or an envelope the scenario does not select
    "unlisted-envelope-key": ("bounds", "envelope.orlicz.C = abc", (), "envelope.orlicz.C"),
    "potential-key-other-family": ("bounds", "potential.alpha = 3", (),
                                   "'potential.alpha' is not read with "
                                   "potential.family = gaussian"),
    "potential-sigma-power": ("bounds", "potential.family = power\npotential.alpha = 2\n"
                                        "potential.sigma = 1", (),
                              "'potential.sigma' is not read with potential.family = power"),
    "potential-scale-power-log": ("bounds", "potential.family = power_log\n"
                                            "potential.alpha = 1.5\npotential.scale = 2", (),
                                  "'potential.scale' is not read with "
                                  "potential.family = power_log"),
    "potential-alpha-tabulated": ("bounds", "potential.family = tabulated\n"
                                            "potential.path = {tmp}/none.csv\n"
                                            "potential.alpha = 2", (),
                                  "'potential.alpha' is not read with "
                                  "potential.family = tabulated"),
    "initial-path-not-tabulated": ("bounds", "initial.path = {tmp}/none.csv", (),
                                   "'initial.path' is not read with initial.family = step"),
    "potential-path-not-tabulated": ("bounds", "potential.path = {tmp}/none.csv", (),
                                     "'potential.path' is not read with "
                                     "potential.family = gaussian"),
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
    "t-end-not-whole-steps": ("analyze", "sim.dt = 0.1\nsim.t_end = 0.15", (),
                              "t_end = 0.15 is not a whole number of dt = 0.1 steps"),
    # more steps than a run can count
    "dt-too-many-steps": ("simulate", "sim.dt = 1e-300\nsim.t_end = 0.05", (),
                          "sim: t_end / dt = 5e+298 steps is more than sys.maxsize"),
    "unknown-scheme": ("analyze", "sim.scheme = foo", (),
                       "key 'sim.scheme': unknown 'foo' (implicit_euler | spectral)"),
    # the Crank-Nicolson scheme was retired for the spectral one
    "crank-nicolson-scheme": ("simulate", "sim.scheme = crank_nicolson", (),
                              "key 'sim.scheme': unknown 'crank_nicolson' "
                              "(implicit_euler | spectral)"),
    "missing-potential-table": ("analyze", "potential.family = tabulated\n"
                                           "potential.path = {tmp}/none.csv", (),
                                "potential.path"),
    "missing-initial-table": ("simulate", "initial.family = tabulated\n"
                                          "initial.path = {tmp}/none.csv", (),
                              "initial.path"),
    # BAD_TABLES: 2 columns, at least 2 rows, finite cells and strictly increasing x
    "initial-table-header-only": ("simulate", "initial.family = tabulated\n"
                                              "initial.path = {tmp}/header-only.csv", (),
                                  "key 'initial.path': table '{tmp}/header-only.csv' "
                                  "needs at least 2 rows"),
    "initial-table-one-row": ("simulate", "initial.family = tabulated\n"
                                          "initial.path = {tmp}/one-row.csv", (),
                              "key 'initial.path': table '{tmp}/one-row.csv' "
                              "needs at least 2 rows"),
    "initial-table-decreasing-x": ("compare", "initial.family = tabulated\n"
                                              "initial.path = {tmp}/decreasing.csv", (),
                                   "key 'initial.path': table '{tmp}/decreasing.csv' "
                                   "needs strictly increasing x"),
    "initial-table-repeated-x": ("simulate", "initial.family = tabulated\n"
                                             "initial.path = {tmp}/repeated.csv", (),
                                 "key 'initial.path': table '{tmp}/repeated.csv' "
                                 "needs strictly increasing x"),
    "initial-table-nan": ("analyze", "initial.family = tabulated\n"
                                     "initial.path = {tmp}/nan.csv", (),
                          "key 'initial.path': table '{tmp}/nan.csv' has a non-finite cell"),
    "initial-table-three-columns": ("simulate", "initial.family = tabulated\n"
                                                "initial.path = {tmp}/three-columns.csv", (),
                                    "key 'initial.path': table '{tmp}/three-columns.csv' "
                                    "needs exactly 2 columns"),
    "potential-table-header-only": ("analyze", "potential.family = tabulated\n"
                                               "potential.path = {tmp}/header-only.csv", (),
                                    "key 'potential.path': table '{tmp}/header-only.csv' "
                                    "needs at least 2 rows"),
    "potential-table-one-row": ("analyze", "potential.family = tabulated\n"
                                           "potential.path = {tmp}/one-row.csv", (),
                                "key 'potential.path': table '{tmp}/one-row.csv' "
                                "needs at least 2 rows"),
    # a first line of numbers only is data, not a header line
    "initial-table-no-header": ("simulate", "initial.family = tabulated\n"
                                            "initial.path = {tmp}/no-header.csv", (),
                                "key 'initial.path': table '{tmp}/no-header.csv' "
                                "needs a header line"),
    # a byte-order mark does not make such a first line a header line
    "initial-table-no-header-bom": ("simulate", "initial.family = tabulated\n"
                                                "initial.path = {tmp}/no-header-bom.csv", (),
                                    "key 'initial.path': table '{tmp}/no-header-bom.csv' "
                                    "needs a header line"),
    "potential-table-no-header": ("analyze", "potential.family = tabulated\n"
                                             "potential.path = {tmp}/no-header-v.csv", (),
                                  "key 'potential.path': table '{tmp}/no-header-v.csv' "
                                  "needs a header line"),
    "potential-table-three-rows": ("bounds", "potential.family = tabulated\n"
                                             "potential.path = {tmp}/three-rows.csv", (),
                                   "potential.path = {tmp}/three-rows.csv: tabulated "
                                   "potential needs at least 4 points, got 3"),
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
    # F <= 0 zeroes or flips the F-weighted capacity sup
    "capacity-f-const-negative": ("analyze", "analysis.capacity_rho = 2\n"
                                             "analysis.capacity_f_const = -1", (),
                                  "analysis.capacity_f_const"),
    "capacity-f-const-zero": ("analyze", "analysis.capacity_rho = 2\n"
                                         "analysis.capacity_f_const = 0", (),
                              "analysis.capacity_f_const"),
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
    # the numeric initial.* keys are still range-checked under every initial family
    "shift-nan-step": ("simulate", "initial.family = step\ninitial.shift = nan", (),
                       "initial.shift"),
    "cap-zero-eigen": ("bounds", "initial.family = eigen_perturbation\ninitial.cap = 0", (),
                       "initial.cap"),
    # phi must increase to infinity: u^(q-1) needs q > 1, log+(u)^beta_exp needs beta_exp > 0
    "phi-power-q-one": ("bounds", "envelopes = truncation_poincare\n"
                                  "envelope.truncation_poincare.q = 1", (),
                        "envelope.truncation_poincare.q"),
    "phi-power-q-half": ("bounds", "envelopes = weak_poincare\n"
                                   "envelope.weak_poincare.q = 0.5", (),
                         "envelope.weak_poincare.q"),
    "phi-logbeta-exp-zero": ("bounds", "envelopes = truncation_logsob\n"
                                       "envelope.truncation_logsob.beta_exp = 0", (),
                             "envelope.truncation_logsob.beta_exp"),
    "phi-logbeta-exp-zero-compare": ("compare", "envelopes = truncation_poincare\n"
                                                "envelope.truncation_poincare.phi = logbeta\n"
                                                "envelope.truncation_poincare.beta_exp = 0",
                                     (), "envelope.truncation_poincare.beta_exp"),
    "phi-logbeta-exp-negative": ("bounds", "envelopes = orlicz\n"
                                           "envelope.orlicz.phi = logbeta\n"
                                           "envelope.orlicz.beta_exp = -0.5", (),
                                 "envelope.orlicz.beta_exp"),
    # a phi or beta key the selected form does not read would be silently ignored
    "unread-beta-no-form": ("bounds", "envelopes = curvature\n"
                                      "envelope.curvature.beta_c = 5", (),
                            "'envelope.curvature.beta_c' is not read with "
                            "envelope.curvature.beta_form unset"),
    "unread-beta-other-form": ("compare", "envelopes = weak_poincare\n"
                                          "envelope.weak_poincare.beta_form = constant\n"
                                          "envelope.weak_poincare.beta_q = 2", (),
                               "'envelope.weak_poincare.beta_q' is not read with "
                               "envelope.weak_poincare.beta_form = constant"),
    "unread-phi-linear": ("bounds", "envelopes = hellinger\nenvelope.hellinger.q = 3", (),
                          "'envelope.hellinger.q' is not read with "
                          "envelope.hellinger.phi = linear"),
    "unread-phi-other-form": ("bounds", "envelopes = truncation_logsob\n"
                                        "envelope.truncation_logsob.q = 2", (),
                              "'envelope.truncation_logsob.q' is not read with "
                              "envelope.truncation_logsob.phi = logbeta"),
    # the splice point must exceed max(2, b); analyze reads it for the capacity check
    "psi-a-below-two-analyze": ("analyze", "psi.a = 1.5\nanalysis.capacity_rho = 2", (),
                                "psi.a"),
    "psi-a-two-bounds": ("bounds", "psi.a = 2", (), "psi.a"),
    "psi-a-below-two-simulate": ("simulate", "psi.a = 1.5", (), "psi.a"),
    "psi-a-huge": ("simulate", "psi.a = 1e300", (), "psi.a"),
    # the tail tolerance is a fraction of the peak density
    "tail-tol-zero": ("analyze", "grid.tail_tol = 0", (), "grid.tail_tol"),
    "tail-tol-one": ("bounds", "grid.tail_tol = 1", (), "grid.tail_tol"),
    "tail-tol-two": ("simulate", "grid.tail_tol = 2", (), "grid.tail_tol"),
    # build_measure needs at least 101 grid points
    "n-points-100": ("analyze", "grid.n_points = 100", (), "grid.n_points"),
    "calibrate-not-boolean": ("bounds", "envelopes.calibrate = maybe", (),
                              "envelopes.calibrate"),
    "eta-unknown": ("simulate", "psi.eta = cubic", (), "psi.eta"),
    "eta-power-inadmissible": ("simulate", "psi.eta = power(2.5)", (), "psi.eta"),
    "eta-power-unclosed": ("simulate", "psi.eta = power(1.5", (), "psi.eta"),
    # after SMALL_CFG's 7 keys
    "empty-key": ("analyze", " = 3", (), "line 8: empty key"),
    # the row's own lines, after SMALL_CFG's 6 other keys
    "key-set-twice": ("simulate", "sim.dt = 0.1\nsim.dt = 0.01", (),
                      "line 8: key 'sim.dt' is already set on line 7"),
}


# the x,y tables that BAD_INPUTS names as {tmp}/<name>.csv
BAD_TABLES = {"header-only": "x,y\n", "one-row": "x,y\n0,1\n",
              "decreasing": "x,y\n1,1\n0,2\n-1,1\n",
              "repeated": "x,y\n-1,1\n0,2\n0,2\n1,1\n",
              "nan": "x,y\n-1,1\n0,nan\n1,1\n",
              "three-columns": "x,y,z\n-1,1,0\n0,2,0\n1,1,0\n",
              "three-rows": "x,y\n-4,8\n0,0\n4,8\n",
              "no-header": "-2,0.1\n-1,0.5\n0,1\n1,0.5\n2,0.1\n",
              "no-header-v": "-4,8\n-2,2\n0,0\n2,2\n4,8\n",
              "no-header-bom": "\ufeff-2,0.1\n-1,0.5\n0,1\n1,0.5\n2,0.1\n"}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2(case, tmp_path, capsys):
    verb, lines, argv, needle = BAD_INPUTS[case]
    for name, text in BAD_TABLES.items():
        (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
    path = write_cfg(tmp_path, merge_cfg(SMALL_CFG, lines.format(tmp=tmp_path)))
    try:
        code = main([verb, path, "--out", str(tmp_path / "out"), *argv])
    except SystemExit as exc:        # argparse rejects bad flags this way
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err
    assert needle.format(tmp=tmp_path) in err


@pytest.mark.parametrize("verb", ["analyze", "bounds", "simulate", "compare"])
@pytest.mark.parametrize("under", ["", "/sub"])
def test_out_at_or_under_a_file_exits_2(verb, under, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    out = f"{tmp_path}/file{under}"
    assert main([verb, write_cfg(tmp_path, SMALL_CFG), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"tvdecay: config error: --out {out!r}: ") and err.count("\n") == 1


# (sim.t_end, rows, first t) of a bounds run at sim.dt = 1e-4 and --t-grid 4
T_GRIDS = [("2e-3", 4, 1e-3), ("5e-4", 4, 1e-4), ("1e-4", 1, 1e-4)]


@pytest.mark.parametrize("t_end, rows, first", T_GRIDS)
def test_bounds_t_grid_lies_in_dt_to_t_end(t_end, rows, first, tmp_path):
    # from 1e-3 when t_end is past it, else from dt; one row when dt = t_end
    path = write_cfg(tmp_path, merge_cfg(SMALL_CFG, f"sim.dt = 1e-4\nsim.t_end = {t_end}"))
    out = tmp_path / "out"
    assert main(["bounds", path, "--out", str(out), "--t-grid", "4"]) == 0
    t = np.loadtxt(out / "curves.csv", delimiter=",", skiprows=1, ndmin=2)[:, 0]
    assert (len(t), t[0], t[-1]) == (rows, first, float(t_end))
    assert np.all(np.diff(t) > 0)


def test_weak_logsob_tiny_eps_bound_is_finite(tmp_path):
    # the xi clock's monotonicity probe must run forward when eps < 2e-10
    path = write_cfg(tmp_path, merge_cfg(SMALL_CFG, "envelopes = weak_logsob\n"
                                                    "analysis.c_ls_override = 1\n"
                                                    "envelope.weak_logsob.eps = 1e-11"))
    out = tmp_path / "out"
    assert main(["bounds", path, "--out", str(out), "--t-grid", "20"]) == 0
    bound = np.loadtxt(out / "curves.csv", delimiter=",", skiprows=1)[:, 1]
    assert np.all(np.isfinite(bound)) and np.all(np.diff(bound) <= 0)


def test_weak_logsob_eps_1e_300_exits_3(tmp_path, capsys):
    # xi's bisection bracket (1e-16, eps - 1e-12] is empty
    path = write_cfg(tmp_path, merge_cfg(SMALL_CFG, "envelopes = weak_logsob\n"
                                                    "analysis.c_ls_override = 1\n"
                                                    "envelope.weak_logsob.eps = 1e-300"))
    assert main(["bounds", path, "--out", str(tmp_path / "out"), "--t-grid", "5"]) == 3
    err = capsys.readouterr().err
    assert "BadExponent" in err and "c = 1e-300" in err and "Traceback" not in err


# power alpha = 1 has rho <= 0, so no C_LS: the log-Sobolev default betas have no constant
NO_C_LS_CFG = merge_cfg(SMALL_CFG, "potential.family = power\npotential.alpha = 1")


@pytest.mark.parametrize("verb", ["bounds", "compare"])
@pytest.mark.parametrize("name", ["weak_logsob", "restricted_logsob"])
def test_default_beta_without_c_ls_exits_3(name, verb, tmp_path, capsys):
    path = write_cfg(tmp_path, merge_cfg(NO_C_LS_CFG, f"envelopes = {name}"))
    assert main([verb, path, "--out", str(tmp_path / "out"), "--t-grid", "5"]) == 3
    err = capsys.readouterr().err
    assert f"{name} envelope needs a positive C_LS" in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["weak_logsob", "restricted_logsob"])
def test_explicit_beta_without_c_ls_builds(name, tmp_path):
    path = write_cfg(tmp_path, merge_cfg(NO_C_LS_CFG, f"envelopes = {name}\n"
                                                      f"envelope.{name}.beta_form = power"))
    assert main(["bounds", path, "--out", str(tmp_path / "out"), "--t-grid", "5"]) == 0


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


# envelope.curvature.* lines whose bound overflows to nan at every t
NON_FINITE_BOUNDS = {
    "power-q-huge": "beta_form = power\nenvelope.curvature.beta_q = 1e300",
    "logpower-r-huge": "beta_form = logpower\nenvelope.curvature.beta_r = 1e300",
}


@pytest.mark.parametrize("verb", ["bounds", "compare"])
@pytest.mark.parametrize("case", sorted(NON_FINITE_BOUNDS))
def test_non_finite_bound_exits_3(case, verb, tmp_path, capsys):
    lines = f"envelopes = curvature\nenvelope.curvature.{NON_FINITE_BOUNDS[case]}"
    path = write_cfg(tmp_path, merge_cfg(SMALL_CFG, lines))
    assert main([verb, path, "--out", str(tmp_path / "out"), "--t-grid", "5"]) == 3
    err = capsys.readouterr().err
    assert "'curvature'" in err and "at t = " in err and "Traceback" not in err


# a 101-point gaussian with a step start, uncalibrated, whose route overflows
# exp(t / C) at the end of its t range: (config lines, envelope named)
OVERFLOWING_BOUNDS = {
    "truncation-poincare": ("envelopes = truncation_poincare\nanalysis.c_p_override = 0.1\n"
                            "sim.dt = 1\nsim.t_end = 1000", "truncation_poincare"),
    "truncation-logsob": ("envelopes = truncation_logsob\nanalysis.c_ls_override = 0.1\n"
                          "sim.dt = 1\nsim.t_end = 1000", "truncation_logsob"),
}


@pytest.mark.parametrize("verb", ["bounds", "compare"])
@pytest.mark.parametrize("case", sorted(OVERFLOWING_BOUNDS))
def test_overflowing_bound_exits_3(case, verb, tmp_path, capsys):
    lines, name = OVERFLOWING_BOUNDS[case]
    path = write_cfg(tmp_path, merge_cfg(SMALL_CFG, "grid.n_points = 101\n"
                                                    f"envelopes.calibrate = false\n{lines}"))
    assert main([verb, path, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"envelope {name!r}: overflow" in err and "Traceback" not in err


@pytest.mark.parametrize("name", sorted(ENVELOPES))
def test_large_t_end_exits_0_or_3(name, tmp_path, capsys):
    extra = "envelope.ipsi.C_eta = 1\n" if name == "ipsi" else ""
    path = write_cfg(tmp_path, merge_cfg(SMALL_CFG, "grid.n_points = 101\nsim.t_end = 1e5\n"
                                                    f"envelopes = {name}\n{extra}"))
    code = main(["bounds", path, "--out", str(tmp_path / "out"), "--t-grid", "50"])
    err = capsys.readouterr().err
    assert code in (0, 3), err
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", ["bounds", "compare"])
def test_negative_bound_exits_3(verb, tmp_path, capsys, monkeypatch):
    # no configured envelope goes below 0, so one is planted
    def below_zero(C_P, l2_norm):
        return envelopes.DecayEnvelope("poincare_l2", {},
                                       lambda t: np.full_like(t, -1e-3))
    monkeypatch.setattr(config, "envelope_poincare_l2", below_zero)
    path = write_cfg(tmp_path, SMALL_CFG)
    assert main([verb, path, "--out", str(tmp_path / "out"), "--t-grid", "5"]) == 3
    err = capsys.readouterr().err
    assert "'poincare_l2'" in err and "-0.001 at t = " in err and "Traceback" not in err


@pytest.mark.parametrize("verb", ["analyze", "bounds", "simulate"])
def test_non_finite_start_exits_3(verb, tmp_path, capsys):
    # exp(2 (V(x) - V(x - shift))) overflows, so h0 is inf/nan, not a density
    path = write_cfg(tmp_path, merge_cfg(SMALL_CFG, "initial.family = shifted_gaussian\n"
                                                    "initial.shift = 1e300"))
    assert main([verb, path, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "NotADensity" in err and "Traceback" not in err


@pytest.mark.parametrize("verb", ["analyze", "bounds", "simulate", "compare"])
def test_massless_tabulated_start_exits_3(verb, tmp_path, capsys):
    # every command builds the start; analyze reports the mass its cap removed
    (tmp_path / "h.csv").write_text("x,h\n-4,-1\n4,-2\n")
    path = write_cfg(tmp_path, merge_cfg(SMALL_CFG, "initial.family = tabulated\n"
                                                    f"initial.path = {tmp_path}/h.csv"))
    assert main([verb, path, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "NotADensity" in err and "Traceback" not in err


@pytest.mark.parametrize("verb", ["simulate", "compare"])
def test_solver_breakdown_exits_3(verb, tmp_path, capsys, monkeypatch):
    # a non-finite upper diagonal, the only one the implicit step reads, makes
    # the step matrix non-finite
    real = simulate.generator

    def broken(mu):
        lower, diag, upper = real(mu)
        return lower, diag, np.full_like(upper, np.inf)
    monkeypatch.setattr(simulate, "generator", broken)
    path = write_cfg(tmp_path, SMALL_CFG)
    assert main([verb, path, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "SolverBreakdown" in err and "Traceback" not in err


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
# each phi and beta key under every phi / beta_form that reads it, as "<key>@<form>"
PHI_FORM_KEYS = {form: tuple(keys) for form, (_, keys) in PHIS.items() if keys}
BETA_FORM_KEYS = {form: tuple(keys) for form, (_, keys) in BETA_FORMS.items()}
FUZZ_KEYS.update({f"envelope.{name}.{key}@{form}": (
    "bounds", f"envelopes = {name}\nenvelope.{name}.{selector} = {form}")
    for name, family in ENVELOPES.items()
    for selector, table in (("phi", PHI_FORM_KEYS if family.phi else {}),
                            ("beta_form", BETA_FORM_KEYS if family.beta else {}))
    for form, keys in table.items() for key in keys})
FUZZ_VALUES = ("-1", "0", "nan", "inf", "1e300", "1e-300")
# sim.t_end = 1e300 asks for about 1e302 solver steps and sim.dt = 1e-300 for about
# 5e298: more than sys.maxsize, so both exit 2
FUZZ_CASES = [(k, v) for k in sorted(FUZZ_KEYS) for v in FUZZ_VALUES]


# the lines each potential family needs to load, on top of FUZZ_CFG
POTENTIAL_LINES = {"gaussian": "", "power": "potential.alpha = 2",
                   "power_log": "potential.alpha = 1.5", "tabulated": "potential.path = {table}"}


def test_fuzz_keys_cover_every_numeric_key(tmp_path):
    # the keys are what loading reads, over every potential and initial family
    # and every envelope under each of its phi and beta forms
    table = tmp_path / "table.csv"
    table.write_text("x,y\n-4,1\n-1,2\n1,1\n4,2\n")
    texts = [f"potential.family = {fam}\n{POTENTIAL_LINES[fam].format(table=table)}"
             for fam in POTENTIALS]
    texts += [f"initial.family = {fam}\ninitial.path = {table}" if fam == "tabulated"
              else f"initial.family = {fam}" for fam in INITIAL]
    texts += [f"envelopes = {name}\n" + (f"envelope.{name}.{selector} = {form}"
                                           if selector else "")
              for name, family in ENVELOPES.items()
              for selector, forms in ((None, [None]), ("phi", PHIS if family.phi else ()),
                                      ("beta_form", BETA_FORMS if family.beta else ()))
              for form in forms]
    read = set()
    for text in texts:
        read |= scenario_from_config(parse_config_text(merge_cfg(FUZZ_CFG, text))).config.read
    text_keys = {"potential.family", "potential.path", "initial.family", "initial.path",
                 "sim.scheme", "psi.eta", "envelopes", "envelopes.calibrate"}
    numeric = {key for key in read - text_keys
               if key.rpartition(".")[2] not in ("phi", "beta_form")}
    assert {case.partition("@")[0] for case in FUZZ_KEYS} == numeric


@pytest.mark.parametrize("key, value", FUZZ_CASES)
def test_config_fuzz(key, value, tmp_path, capsys):
    verb, lines = FUZZ_KEYS[key]
    path = write_cfg(tmp_path, merge_cfg(FUZZ_CFG, lines, f"{key.partition('@')[0]} = {value}"))
    argv = ("--t-grid", "5") if verb == "bounds" else ()
    code = main([verb, path, "--out", str(tmp_path / "out"), *argv])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code == 0 and verb != "analyze":
        curves = np.loadtxt(tmp_path / "out" / "curves.csv", delimiter=",", skiprows=1)
        assert np.all(np.isfinite(curves))


# every envelope under its defaults, and under each phi and beta form it takes
FORM_CASES = [(name, selector, form) for name, family in ENVELOPES.items()
              for selector, forms in ((None, [None]), ("phi", PHIS if family.phi else ()),
                                      ("beta_form", BETA_FORMS if family.beta else ()))
              for form in forms]


@pytest.mark.parametrize("name, selector, form", FORM_CASES,
                         ids=[f"{n}-{s}-{f}" for n, s, f in FORM_CASES])
def test_every_applied_default_lies_in_its_interval(name, selector, form, monkeypatch):
    # an unset key takes its default unchecked, so the default must lie in the
    # open interval that a set value of the key must lie in
    applied, get_number = {}, config.get_number

    def spy(cfg, key, default=None, kind=float, within=config.ANY):
        applied[key] = (default, within)
        return get_number(cfg, key, default, kind, within)
    monkeypatch.setattr(config, "get_number", spy)
    text = f"envelopes = {name}\n" + (f"envelope.{name}.{selector} = {form}" if selector
                                      else "")
    scenario_from_config(parse_config_text(f"{FUZZ_CFG}{text}\n"))
    outside = {key: (default, within) for key, (default, within) in applied.items()
               if default is not None and not within[0] < default < within[1]}
    assert outside == {}
    form_keys = (PHIS if selector == "phi" else BETA_FORMS)[form][1] if selector else {}
    assert {*(f"envelope.{name}.{key}" for key in [*form_keys, *ENVELOPES[name].extras]),
            *(f"analysis.{key}" for key in config.ANALYSIS)} <= set(applied)


# the documented default of each phi form's key, and a family's own where it differs
PHI_DEFAULTS = {"power": ("q", "1.5"), "logbeta": ("beta_exp", "1")}
FAMILY_PHI_DEFAULTS = {("orlicz", "power"): "3"}


@pytest.mark.parametrize("name, form", [(name, form) for name, family in ENVELOPES.items()
                                        if family.phi for form in PHI_DEFAULTS])
def test_unset_phi_key_is_its_default_set(name, form, tmp_path):
    key, default = PHI_DEFAULTS[form]
    default = FAMILY_PHI_DEFAULTS.get((name, form), default)
    base = merge_cfg(SMALL_CFG, "sim.t_end = 5\ninitial.family = shifted_gaussian\n"
                     f"envelopes = {name}\nenvelope.{name}.phi = {form}")
    curves = []
    for value in (None, default, "2.5"):
        out = tmp_path / f"out{len(curves)}"
        text = base + (f"envelope.{name}.{key} = {value}\n" if value else "")
        path = write_cfg(tmp_path, text, name=f"{len(curves)}.cfg")
        assert main(["bounds", path, "--out", str(out), "--t-grid", "20"]) == 0
        curves.append((out / "curves.csv").read_bytes())
    assert curves[0] == curves[1]
    assert curves[0] != curves[2]     # the key moves the bound


ALL_FAMILIES_CFG = merge_cfg(SMALL_CFG, f"""
initial.family = shifted_gaussian
envelopes = {", ".join(ENVELOPES)}
psi.eta = power(1.5)
analysis.capacity_rho = 2.0
analysis.capacity_f_const = 2.0
""")


def test_write_csv_formats_each_value_to_17_digits(tmp_path):
    rng = np.random.default_rng(3)
    special = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, -5e-324,
               1.7976931348623157e308, 0.1, 1.0, 3, 1e16, 123456789.123456789]
    cols = [np.array(special), special[::-1], rng.standard_normal(13) * 10.0 ** rng.integers(
        -300, 300, 13), np.arange(13, dtype=np.int64), rng.random(13).astype(np.float32)]
    write_csv(tmp_path / "out.csv", ["a", "b", "c", "d", "e"], cols)
    lines = ["a,b,c,d,e"] + [",".join(format(float(col[i]), ".17g") for col in cols)
                             for i in range(13)]
    assert (tmp_path / "out.csv").read_text() == "\n".join(lines) + "\n"


def test_envelope_params_are_json():
    scn = scenario_from_config(parse_config_text(ALL_FAMILIES_CFG))
    mu = scn.build_measure()
    h0 = scn.build_initial(mu)
    envs, _ = _bound_curves(scn, mu, h0, analyze_scenario(scn, mu), np.array([0.5]))
    assert list(envs) == list(ENVELOPES)
    for env in envs.values():
        json.dumps(env.params)      # a callable in params raises TypeError


def test_bounds_searches_no_valid_from(tmp_path, monkeypatch):
    # only compare's verdict runs the valid_from search, once per envelope
    calls, search = [], envelopes._valid_from
    monkeypatch.setattr(envelopes, "_valid_from",
                        lambda env: calls.append(env.name) or search(env))
    cfg = write_cfg(tmp_path, ALL_FAMILIES_CFG)
    assert main(["bounds", cfg, "--out", str(tmp_path / "bounds"), "--t-grid", "3"]) == 0
    assert calls == []
    assert main(["compare", cfg, "--out", str(tmp_path / "compare")]) == 0
    assert calls == list(ENVELOPES)     # the spy sees compare's searches


@pytest.mark.parametrize("verb", ["bounds", "compare"])
def test_one_eval_call_per_envelope(verb, tmp_path, monkeypatch):
    # each envelope is evaluated over the whole t array in one call: a per-t
    # loop would multiply the calls, and a profiler that wraps eval counts
    # the t points of each call
    calls = []
    orig = envelopes.DecayEnvelope.eval

    def spy(env, t):
        calls.append((env.name, np.shape(t)))
        return orig(env, t)
    monkeypatch.setattr(envelopes.DecayEnvelope, "eval", spy)
    out = tmp_path / "out"
    assert main([verb, write_cfg(tmp_path, ALL_FAMILIES_CFG), "--out", str(out),
                 "--t-grid", "7"]) == 0
    n_t = len((out / "curves.csv").read_text().splitlines()) - 1
    assert n_t == (7 if verb == "bounds" else 3)
    assert sorted(calls) == sorted((name, (n_t,)) for name in ENVELOPES)


DENSITIES = ("eigen_perturbation", "step_density", "shifted_gaussian_density",
             "tail_ratio_density", "tabulated_density")
INITIAL_CFG = {"eigen_perturbation": "", "step": "", "shifted_gaussian": "",
               "tail_ratio": "initial.p = 1.0", "tabulated": "initial.path = {tmp}/h.csv"}


def test_rebound_names_are_called(tmp_path, monkeypatch):
    # a profiler wraps envelope_<family>, the density functions, functionals
    # and build_psi_from_eta by rebinding each name in every tvdecay module;
    # the commands must then call the wrappers
    modules = [m for n, m in sys.modules.items()
               if n == "tvdecay" or n.startswith("tvdecay.")]
    targets = ([(envelopes, f"envelope_{f}") for f in ENVELOPES]
               + [(measures, f) for f in (*DENSITIES, "functionals")]
               + [(psi, "build_psi_from_eta")])
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
        text = merge_cfg(SMALL_CFG, f"initial.family = {family}\n" + lines.format(tmp=tmp_path))
        assert main(["simulate", write_cfg(tmp_path, text), "--out", out]) == 0, family
    assert called == {attr for _, attr in targets}


def test_commands_compute_no_psi_tables(tmp_path, monkeypatch):
    # the Pinsker constant is computed on first read, and no output reads it
    def refuse(*args, **kwargs):
        raise AssertionError("a psi table was computed")
    monkeypatch.setattr(psi, "pinsker_constant", refuse)
    cfg = write_cfg(tmp_path, ALL_FAMILIES_CFG)
    for verb in ("simulate", "compare"):
        assert main([verb, cfg, "--out", str(tmp_path / verb)]) == 0, verb


def test_readme_example_validates():
    # the example's commented-out optional keys must be keys that it reads too
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    example = re.sub(r"^# (\S+ *=)", r"\1", example, flags=re.M)
    assert "analysis.capacity_rho" in parse_config_text(example)
    scenario_from_config(parse_config_text(example))
    misspelt = example.replace("truncation_poincare.q ", "truncation_poincare.qq ")
    with pytest.raises(ConfigError, match="envelope.truncation_poincare.qq"):
        scenario_from_config(parse_config_text(misspelt))


def test_readme_names_every_key_of_the_rows():
    # the README's key lists and envelope table are written by hand; each key
    # that the config reader's rows declare must be named there
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Scenario configuration", 1)[1].split("\n## ", 1)[0]
    keys = {f"{prefix}.{key}" for prefix, table in (("potential", POTENTIALS),
                                                     ("initial", INITIAL))
            for _, row in table.values() for key in row}
    keys |= {f"{prefix}.{key}" for prefix, table in (("analysis", config.ANALYSIS),
                                                     ("grid", config.GRID), ("sim", config.SIM))
             for key in table}
    keys |= {f"`{key}`" for table in (PHIS, BETA_FORMS) for _, row in table.values()
             for key in row}
    keys |= {f"`{form}`" for table in (PHIS, BETA_FORMS) for form in table}
    assert sorted(key for key in keys if key not in section) == []
    rows = {line.split("|")[1].strip(): line for line in section.splitlines()
            if line.startswith("| `")}
    assert [(name, key) for name, family in ENVELOPES.items() for key in family.extras
            if f"`{key}`" not in rows[f"`{name}`"]] == []
    ini = section.split("```ini\n", 1)[1].split("```", 1)[0]
    for prefix, table in (("potential", POTENTIALS), ("initial", INITIAL)):
        # the family list in the comment of the selector's line and of the
        # comment lines that continue it
        listed = re.search(rf"^{prefix}\.family *=[^#]*#(.*(?:\n +#.*)*)", ini, re.M)
        assert set(re.findall(r"\w+", listed.group(1))) >= set(table), prefix
