import inspect
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import tvdecay as tv
from tvdecay.errors import (
    LowerBoundViolated,
    NotADensity,
    SolverBreakdown,
    WrongMeasure,
)
from tvdecay.measures import (
    Functionals,
    eigen_perturbation,
    functionals,
    shifted_gaussian_density,
    step_density,
    tail_ratio_density,
)
from tvdecay import simulate
from tvdecay.psi import build_psi_from_eta, eta_power
from tvdecay.simulate import _step_solver, reverse_diagnostics
from tvdecay._numerics import fit_log_slope
from conftest import contraction_check, random_density


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            tv.SimConfig(dt=-1.0, t_end=1.0)
        with pytest.raises(ValueError):
            tv.SimConfig(dt=0.1, t_end=0.05)
        with pytest.raises(ValueError):
            tv.SimConfig(dt=0.1, t_end=1.0, save_every=0)
        with pytest.raises(ValueError):
            tv.SimConfig(dt=0.1, t_end=1.0, scheme="leapfrog")

    @pytest.mark.parametrize("dt, t_end", [(1e-3, 1e300), (1e-300, 0.05), (1.0, 2.0 ** 64)])
    def test_more_steps_than_a_run_can_count(self, dt, t_end):
        # evolve lists its save steps, which Python indexes with a C ssize_t
        with pytest.raises(ValueError, match="steps is more than sys.maxsize"):
            tv.SimConfig(dt=dt, t_end=t_end)

    @pytest.mark.parametrize("save_every", [2.5, 3.0, "3"])
    def test_non_integral_save_every(self, save_every):
        with pytest.raises(ValueError, match="save_every"):
            tv.SimConfig(dt=0.1, t_end=1.0, save_every=save_every)

    def test_numpy_integer_save_every(self):
        mu = tv.build_measure(tv.PotentialSpec.gaussian(), 101)
        config = tv.SimConfig(dt=0.1, t_end=1.0, save_every=np.int64(3))
        assert config == tv.SimConfig(dt=0.1, t_end=1.0, save_every=3)
        s = tv.evolve(mu, step_density(mu), config)
        np.testing.assert_allclose(s.times, [0.0, 0.3, 0.6, 0.9, 1.0])


class TestStationarity:
    def test_equilibrium_is_fixed(self, gaussian_measure):
        # the discrete generator annihilates constants identically
        cfg = tv.SimConfig(dt=1e-2, t_end=0.5, save_every=10)
        s = tv.evolve(gaussian_measure, np.ones(4001), cfg, keep_states=True)
        assert np.max(np.abs(s.states[-1] - 1.0)) < 1e-12
        assert np.all(s.tv < 1e-12)
        assert np.all(np.abs(s.variance) < 1e-12)


class TestConservation:
    def test_mass_conserved(self, gaussian_measure):
        rng = np.random.default_rng(61)
        h0 = random_density(gaussian_measure, rng)
        cfg = tv.SimConfig(dt=1e-3, t_end=1.0, save_every=100)
        s = tv.evolve(gaussian_measure, h0, cfg)
        assert np.max(np.abs(s.mass - 1.0)) < 1e-8

    def test_positivity_exact(self, gaussian_measure):
        # implicit Euler is an M-matrix scheme: h >= 0 exactly
        h0 = step_density(gaussian_measure)
        cfg = tv.SimConfig(dt=5e-3, t_end=0.5, save_every=20)
        s = tv.evolve(gaussian_measure, h0, cfg)
        assert np.all(s.min_h >= -1e-15)

    def test_non_density_rejected(self, gaussian_measure):
        cfg = tv.SimConfig(dt=1e-3, t_end=0.1)
        with pytest.raises(NotADensity):
            tv.evolve(gaussian_measure, np.full(4001, 2.0), cfg)


class TestSpectralRates:
    def test_variance_rate_eigenmode(self, gaussian_measure):
        # P_t x = e^{-t} x under L = (1/2) d^2 - x d, so Var decays at 2
        h0 = eigen_perturbation(gaussian_measure, 0.2)
        cfg = tv.SimConfig(dt=1e-3, t_end=2.0, save_every=50)
        s = tv.evolve(gaussian_measure, h0, cfg)
        w = (s.times >= 0.5) & (s.times <= 2.0)
        slope = fit_log_slope(s.times[w], s.variance[w])
        assert slope == pytest.approx(-2.0, abs=0.04)


class TestDissipation:
    def test_identity_quadratic_psi(self, gaussian_measure, psi_centered):
        # d/dt I_psi = -(1/2) int psi''(h) |h'|^2 dmu at interior saves
        h0 = eigen_perturbation(gaussian_measure, 0.2)
        cfg = tv.SimConfig(dt=1e-3, t_end=2.0, save_every=50)
        s = tv.evolve(gaussian_measure, h0, cfg, psi=psi_centered)
        inner = slice(2, -2)
        lhs = s.dissipation_lhs[inner]
        rhs = s.dissipation[inner]
        assert np.all(np.abs(lhs + rhs) <= 0.02 * np.abs(rhs) + 1e-8)


def _series_equals_per_state_calls(mu, series, psi):
    """Every DiagnosticsSeries field == the one-density functionals call on
    the saved (clipped) state, None read as nan."""
    assert len(series.states) == len(series.times)
    for k, h_k in enumerate(series.states):
        f = functionals(mu, h_k, psi, mixture=series.reverse_transformed)
        for field in inspect.signature(Functionals).parameters.values():
            want, got = getattr(f, field.name), getattr(series, field.name)[k]
            if want is None:
                assert math.isnan(got), (field.name, k)
            else:
                assert got == want, (field.name, k)


class TestSeriesFromFunctionals:
    """Each DiagnosticsSeries column is the matching Functionals field at each
    save, with None read as nan."""

    @pytest.fixture(scope="class")
    def small_measure(self):
        return tv.build_measure(tv.PotentialSpec.gaussian(), 401)

    @pytest.mark.parametrize("scheme", ["implicit_euler", "spectral"])
    @pytest.mark.parametrize("with_psi", [False, True])
    @pytest.mark.parametrize("start", ["step", "above_half"])
    def test_columns_match_functionals(self, small_measure, psi_quad_spliced,
                                       scheme, with_psi, start):
        mu = small_measure
        if start == "step":
            h0 = step_density(mu)
        elif start == "shifted":    # its right tail reaches psi's eta branch
            h0 = shifted_gaussian_density(mu, 0.5)
        else:
            h0 = 1.0 + 0.3 * np.tanh(mu.grid)
            h0 = h0 / tv.integrate(mu, h0)
        psi = psi_quad_spliced if with_psi else None
        cfg = tv.SimConfig(dt=0.02, t_end=0.4, scheme=scheme, save_every=3)
        series = tv.evolve(mu, h0, cfg, psi=psi, keep_states=True)
        assert series.reverse_transformed == (start == "step")
        assert len(series.states) == len(series.times) == 8
        _series_equals_per_state_calls(mu, series, psi)
        assert np.isnan(series.dissipation).all() == (psi is None)

    def test_functionals_fields_are_series_fields(self):
        series_names = set(inspect.signature(tv.DiagnosticsSeries).parameters)
        assert set(inspect.signature(Functionals).parameters) <= series_names


class TestBlockedDiagnostics:
    """evolve diagnoses its saves in blocks of max(1, _BLOCK_ELEMS // n) rows:
    the series is the per-save one, and memory stays O(block)."""

    @pytest.fixture(scope="class")
    def measures(self):
        return {n: tv.build_measure(tv.PotentialSpec.gaussian(), n)
                for n in (401, 1001, 2001, 4001)}

    @pytest.fixture(scope="class")
    def psis(self, psi_quad_spliced, psi_entropy_spliced):
        return {"none": None, "quadratic": psi_quad_spliced,
                "entropy": psi_entropy_spliced,
                "power": build_psi_from_eta(eta_power(1.5))}

    @staticmethod
    def rows(n):
        return max(1, simulate._BLOCK_ELEMS // n)

    @pytest.mark.parametrize("start", ["step", "above_half"])
    @pytest.mark.parametrize("psi_name", ["none", "quadratic", "entropy", "power"])
    @pytest.mark.parametrize("n", [401, 1001, 4001])
    def test_series_equals_per_state_calls(self, measures, psis, n, psi_name, start):
        mu, psi = measures[n], psis[psi_name]
        if start == "step":
            h0 = step_density(mu)
        elif start == "shifted":    # its right tail reaches psi's eta branch
            h0 = shifted_gaussian_density(mu, 0.5)
        else:
            h0 = 1.0 + 0.3 * np.tanh(mu.grid)
            h0 = h0 / tv.integrate(mu, h0)
        rows = self.rows(n)
        # two full blocks and a ragged third one
        n_steps = 2 * rows + rows // 2
        cfg = tv.SimConfig(dt=0.01, t_end=0.01 * n_steps)
        series = tv.evolve(mu, h0, cfg, psi=psi, keep_states=True)
        assert len(series.times) == n_steps + 1
        assert len(series.times) % rows != 0
        assert series.reverse_transformed == (start == "step")
        _series_equals_per_state_calls(mu, series, psi)

    @pytest.mark.parametrize("start", ["step", "shifted", "above_half"])
    @pytest.mark.parametrize("grid", ["uniform", "non-uniform"])
    def test_series_does_not_depend_on_the_block_size(self, grid, start, monkeypatch):
        # one-row blocks, and blocks of 2^14 and 2^15 grid values, which end
        # on a partial block: every field is the same array
        if grid == "uniform":
            x = np.linspace(-8.0, 8.0, 33)
            mu = tv.build_measure(tv.PotentialSpec.tabulated(x, 0.5 * x * x), 1025)
        else:
            mu = tv.build_measure(tv.PotentialSpec.gaussian(), 1001)
        dx = np.diff(mu.grid)
        assert bool((dx == dx[0]).all()) == (grid == "uniform")
        if start == "step":
            h0 = step_density(mu)
        elif start == "shifted":    # its right tail reaches psi's eta branch
            h0 = shifted_gaussian_density(mu, 0.5)
        else:
            h0 = 1.0 + 0.3 * np.tanh(mu.grid)
            h0 = h0 / tv.integrate(mu, h0)
        cfg = tv.SimConfig(dt=0.01, t_end=0.69)
        psi = build_psi_from_eta(eta_power(1.5))
        runs = []
        for block_elems in (1, 2 ** 14, 2 ** 15):
            monkeypatch.setattr(simulate, "_BLOCK_ELEMS", block_elems)
            assert block_elems == 1 or 70 % self.rows(len(mu.grid)) != 0
            runs.append(tv.evolve(mu, h0, cfg, psi=psi))
        assert runs[0].reverse_transformed == (start != "above_half")
        assert (h0.max() >= psi.a) == (start == "shifted")
        names = Functionals.NAMES + ("times", "dissipation_lhs")
        for run in runs[1:]:
            for name in names:
                assert np.array_equal(getattr(run, name), getattr(runs[0], name),
                                      equal_nan=True), name

    @pytest.mark.parametrize("psi_name", ["none", "power"])
    @pytest.mark.parametrize("n", [401, 1001, 2001])
    def test_spectral_saves_are_clipped(self, measures, psis, n, psi_name):
        # round-off in the tails of a spike's exact flow leaves tiny negative
        # values, which each save clips at 0, over two full blocks and a ragged one
        mu, psi = measures[n], psis[psi_name]
        h0 = np.zeros(n)
        h0[n // 2] = 1.0
        h0 = h0 / tv.integrate(mu, h0)
        n_steps = 2 * self.rows(n) + 3
        cfg = tv.SimConfig(dt=0.05, t_end=0.05 * n_steps, scheme="spectral")
        series = tv.evolve(mu, h0, cfg, psi=psi, keep_states=True)
        assert np.any(series.min_h[1:] == 0.0)
        assert all(state.min() >= 0.0 for state in series.states)
        assert np.max(np.abs(series.mass - 1.0)) < 1e-12
        _series_equals_per_state_calls(mu, series, psi)

    @pytest.mark.parametrize("saves_in_rows", ["two", "one_row", "exact", "ragged"])
    @pytest.mark.parametrize("n", [401, 1001, 4001, 20001])
    def test_block_shapes(self, monkeypatch, n, saves_in_rows):
        mu = tv.build_measure(tv.PotentialSpec.gaussian(), n)
        rows = self.rows(n)
        saves = {"two": 2, "one_row": rows + 1, "exact": 3 * rows,
                 "ragged": 2 * rows + max(1, rows // 3)}[saves_in_rows]
        calls = []

        def recorder(mu, ws, *args, **kwargs):
            # evolve passes its one workspace; a call diagnoses its filled rows
            calls.append(ws.block[:ws.filled].shape)
            return functionals(mu, ws, *args, **kwargs)
        monkeypatch.setattr(simulate, "functionals", recorder)
        cfg = tv.SimConfig(dt=0.01, t_end=0.01 * (saves - 1))
        series = tv.evolve(mu, step_density(mu), cfg)
        assert len(series.times) == saves
        assert all(len(shape) == 2 and shape[1] == n for shape in calls)
        assert all(shape[0] <= rows for shape in calls)
        assert sum(shape[0] for shape in calls) == len(series.times)
        assert len(calls) == math.ceil(saves / rows)


class TestMonotoneFunctionals:
    def test_all_functionals_non_increasing(self, gaussian_measure,
                                            psi_quad_spliced):
        rng = np.random.default_rng(67)
        shapes = [
            step_density(gaussian_measure),
            eigen_perturbation(gaussian_measure, 0.25),
            tail_ratio_density(gaussian_measure, 1.0)[0],
            random_density(gaussian_measure, rng, smooth=False),
        ]
        cfg = tv.SimConfig(dt=2e-3, t_end=1.0, save_every=50)
        for h0 in shapes:
            s = tv.evolve(gaussian_measure, h0, cfg, psi=psi_quad_spliced)
            for name in ("tv", "hellinger", "variance", "entropy", "i_psi",
                         "v_reverse", "e_reverse"):
                col = getattr(s, name)
                assert np.all(np.diff(col) <= 1e-6), (name, np.diff(col).max())

    def test_sandwich_along_flow(self, gaussian_measure):
        h0 = step_density(gaussian_measure)
        cfg = tv.SimConfig(dt=2e-3, t_end=1.0, save_every=100)
        s = tv.evolve(gaussian_measure, h0, cfg)
        assert np.all(s.hellinger <= 2.0 * s.tv + 1e-9)
        assert np.all(2.0 * s.tv <= 4.0 * np.sqrt(s.hellinger) + 1e-9)


class TestOuExactEvolve:
    def test_requires_gaussian(self, exponential_measure):
        h0 = step_density(exponential_measure)
        with pytest.raises(WrongMeasure):
            tv.ou_exact_evolve(exponential_measure, h0, 1.0)

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_needs_positive_t(self, gaussian_measure, t):
        with pytest.raises(ValueError, match="t must be positive"):
            tv.ou_exact_evolve(gaussian_measure, step_density(gaussian_measure), t)

    def test_h0_off_the_grid(self, gaussian_measure):
        with pytest.raises(NotADensity, match="not aligned"):
            tv.ou_exact_evolve(gaussian_measure, np.ones(len(gaussian_measure.grid) - 1), 1.0)

    def test_kernel_narrower_than_dx_reports_the_mass(self, gaussian_measure):
        # at t = 1e-10 the kernel's width sqrt(1 - e^{-2t}) = 1.4e-5 is far below
        # dx = 3.0e-3, so the node under its peak gives dx / sqrt(2 pi t) = 121
        with pytest.raises(NotADensity, match=r"found mass 121, not 1$"):
            tv.ou_exact_evolve(gaussian_measure, step_density(gaussian_measure), 1e-10)

    def test_long_time_equilibrium(self, gaussian_measure):
        h0 = step_density(gaussian_measure)
        out = tv.ou_exact_evolve(gaussian_measure, h0, 20.0)
        assert tv.integrate(gaussian_measure, np.abs(out - 1.0)) < 1e-8

    def test_short_time_identity(self, gaussian_measure):
        h0 = shifted_gaussian_density(gaussian_measure, 0.5)
        out = tv.ou_exact_evolve(gaussian_measure, h0, 1e-4)
        err = tv.integrate(gaussian_measure, np.abs(out - h0))
        assert err < 1e-2

    def test_eigenmode_decay(self, gaussian_measure):
        # P_t(1 + eps x) = 1 + eps e^{-t} x, exactly
        mu = gaussian_measure
        eps = 0.1
        h0 = 1.0 + eps * mu.grid
        h0 = h0 / tv.integrate(mu, h0)
        t = 0.7
        out = tv.ou_exact_evolve(mu, h0, t)
        expected = 1.0 + eps * math.exp(-t) * mu.grid
        err = tv.integrate(mu, np.abs(out - expected))
        assert err < 1e-7

    def test_step_tv_closed_form(self, gaussian_measure):
        # P_t sign(x) = erf(q x/sqrt(1-q^2)) gives
        # TV(t) = (2/pi) arctan(q/sqrt(1-q^2)), q = e^{-t}
        mu = gaussian_measure
        h0 = step_density(mu)
        prev = tv.tv_distance(mu, h0)
        for t in (0.1, 0.5, 1.0, 2.0):
            out = tv.ou_exact_evolve(mu, h0, t)
            q = math.exp(-t)
            expected = (2.0 / math.pi) * math.atan(q / math.sqrt(1.0 - q * q))
            measured = tv.tv_distance(mu, out)
            assert measured == pytest.approx(expected, abs=3e-3)
            assert measured < prev  # strictly decreasing sequence
            prev = measured


MEHLER_TIMES = (0.25, 0.5, 0.75, 1.0)
STARTS = {"shifted": lambda mu: shifted_gaussian_density(mu, 0.5),
          "step": step_density,
          "eigen": lambda mu: eigen_perturbation(mu, 0.2)}


def _spectral_tv(mu, h0):
    """The spectral flow's TV at MEHLER_TIMES."""
    return tv.evolve(mu, h0, tv.SimConfig(dt=0.25, t_end=1.0, scheme="spectral")).tv[1:]


def _mehler_error(n, start):
    """The largest relative error of the spectral TV against the Mehler
    kernel's at MEHLER_TIMES, on the n-point gaussian grid."""
    mu = tv.build_measure(tv.PotentialSpec.gaussian(), n)
    h0 = STARTS[start](mu)
    exact = np.array([tv.tv_distance(mu, tv.ou_exact_evolve(mu, h0, t))
                      for t in MEHLER_TIMES])
    return np.max(np.abs(_spectral_tv(mu, h0) / exact - 1.0))


class TestSchemeAccuracy:
    """The spectral scheme is exact in time: its TV differs from the Mehler
    kernel's by the grid error alone, which is second order, and implicit
    Euler converges to it at first order in dt."""

    @pytest.mark.parametrize("start", sorted(STARTS))
    def test_spectral_tv_matches_mehler(self, start):
        assert _mehler_error(1001, start) < 1e-4

    @pytest.mark.parametrize("start", sorted(STARTS))
    def test_spectral_grid_error_is_second_order(self, start):
        assert _mehler_error(1001, start) >= 3.5 * _mehler_error(2001, start)

    @pytest.mark.parametrize("start", ["step", "shifted"])
    @pytest.mark.parametrize("potential", ["gaussian", "power1"])
    def test_implicit_euler_converges_at_first_order(self, potential, start):
        spec = {"gaussian": tv.PotentialSpec.gaussian(),
                "power1": tv.PotentialSpec.power(1.0)}[potential]
        mu = tv.build_measure(spec, 1001)
        h0 = STARTS[start](mu)
        exact = _spectral_tv(mu, h0)
        err = {}
        for dt in (1e-2, 1e-3):
            cfg = tv.SimConfig(dt=dt, t_end=1.0, save_every=round(0.25 / dt))
            err[dt] = np.max(np.abs(tv.evolve(mu, h0, cfg).tv[1:] / exact - 1.0))
        assert 1e-3 < err[1e-2] < 1e-2
        assert err[1e-3] <= 0.12 * err[1e-2]


class TestSpectralFlow:
    @pytest.fixture(scope="class")
    def mu(self):
        return tv.build_measure(tv.PotentialSpec.gaussian(), 401)

    def test_starts_at_h0_exactly(self, mu):
        h0 = shifted_gaussian_density(mu, 0.5)
        s = tv.evolve(mu, h0, tv.SimConfig(dt=0.1, t_end=0.5, scheme="spectral"),
                      keep_states=True)
        assert np.array_equal(s.states[0], h0)
        assert not np.array_equal(s.states[1], h0)

    def test_equilibrium_is_fixed(self, mu):
        cfg = tv.SimConfig(dt=0.5, t_end=50.0, scheme="spectral", save_every=10)
        s = tv.evolve(mu, np.ones(len(mu.grid)), cfg)
        assert np.all(s.tv < 1e-12)
        assert np.max(np.abs(s.mass - 1.0)) < 1e-12

    def test_dead_cells_keep_h0(self):
        # V = x^2 tabulated on [-30, 30]: q underflows in both tails, where the
        # cells carry no mass and keep their start, as under implicit Euler
        x = np.linspace(-30.0, 30.0, 61)
        mu = tv.build_measure(tv.PotentialSpec.tabulated(x, x**2), 401)
        dead = mu.quadrature < np.finfo(float).tiny
        assert np.any(dead)
        h0 = shifted_gaussian_density(mu, 0.5)
        s = tv.evolve(mu, h0, tv.SimConfig(dt=0.05, t_end=0.5, scheme="spectral"),
                      keep_states=True)
        assert all(np.array_equal(state[dead], h0[dead]) for state in s.states)
        assert np.max(np.abs(s.mass - 1.0)) < 1e-13
        ie = tv.evolve(mu, h0, tv.SimConfig(dt=1e-3, t_end=0.5, save_every=50))
        np.testing.assert_allclose(s.tv, ie.tv, rtol=2e-3)

    @pytest.mark.parametrize("dt", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_round_off_of_a_steep_start_runs(self, dt):
        # |x/0.5|^4 shifted by 0.7: h0 reaches 7e15 in the left tail, and
        # ||h0||_{L^2(mu)} = 7.4e6.  Soon after t = 0 its high modes are not yet
        # damped, and the round-off of the series clips at most 1.5e-16 of
        # negative mass: the limit, 16 eps ||h0|| = 2.6e-8, is far above it
        mu = tv.build_measure(tv.PotentialSpec.power(4.0, 0.5), 1001)
        h0 = shifted_gaussian_density(mu, 0.7)
        s = tv.evolve(mu, h0, tv.SimConfig(dt=dt, t_end=10 * dt, scheme="spectral"))
        assert np.max(np.abs(s.mass - 1.0)) <= 1e-9

    @pytest.mark.parametrize("every", [1, 100])
    def test_mass_is_restored_at_large_t(self, every):
        # a gap of k steps factors the step at k dt/10, whose columns sum to q
        # only within eps*(k dt/10)*upper.  Without the rescale the mass
        # would drift by 9.0e-10 in one gap of 100 steps (k dt/10 = 100), and
        # by 5.8e-10 over 100 gaps of one step
        mu = tv.build_measure(tv.PotentialSpec.power(4.0, 0.5), 1001)
        s = tv.evolve(mu, step_density(mu), tv.SimConfig(dt=10.0, t_end=1000.0,
                                                         scheme="spectral", save_every=every))
        assert np.max(np.abs(s.mass - 1.0)) <= 1e-12
        assert s.tv[-1] <= 1e-12

    @pytest.mark.parametrize("start", ["shifted", "step"])
    @pytest.mark.parametrize("n", [401, 1001])
    @pytest.mark.parametrize("name", ["gaussian", "power1", "power4"])
    def test_saves_every_step_agree_with_one_gap(self, name, n, start):
        # each save is the series from the previous one, so the round-off of
        # 1000 gaps adds up: it stays within 8 eps ||h0||_{L^2(mu)} per gap
        # of the one gap of 1000 steps from h0
        spec = {"gaussian": tv.PotentialSpec.gaussian(), "power1": tv.PotentialSpec.power(1.0),
                "power4": tv.PotentialSpec.power(4.0)}[name]
        mu = tv.build_measure(spec, n)
        q, k = mu.quadrature, 1000
        h0 = shifted_gaussian_density(mu, 0.5) if start == "shifted" else step_density(mu)
        each, one = (tv.evolve(mu, h0, tv.SimConfig(dt=1e-3, t_end=1.0, scheme="spectral",
                                                    save_every=every), keep_states=True)
                     for every in (1, k))
        assert len(each.states) == k + 1 and len(one.states) == 2
        error = math.sqrt(q @ (each.states[-1] - one.states[-1]) ** 2)
        assert error <= 8 * np.finfo(float).eps * k * math.sqrt(q @ h0 ** 2), error
        assert abs(each.tv[-1] - one.tv[-1]) <= 1e-12


class TestReverseDiagnostics:
    def test_flat_at_equilibrium(self, gaussian_measure):
        cfg = tv.SimConfig(dt=1e-2, t_end=0.3, save_every=10)
        s = tv.evolve(gaussian_measure, np.ones(4001), cfg)
        rd = reverse_diagnostics(s)
        assert np.max(np.abs(rd.V)) < 1e-12
        assert np.max(np.abs(rd.E)) < 1e-12
        assert rd.v_monotone and rd.e_monotone

    def test_monotone_and_tv_bounds(self, gaussian_measure):
        # V, E non-increasing and TV <= sqrt(V), TV <= sqrt(2E) per save;
        # these hold for the (1+h)/2 mixture flow with its own TV
        h0 = step_density(gaussian_measure)
        cfg = tv.SimConfig(dt=2e-3, t_end=1.5, save_every=50)
        s = tv.evolve(gaussian_measure, h0, cfg)
        rd = reverse_diagnostics(s)
        assert rd.v_monotone and rd.e_monotone
        assert s.reverse_transformed
        mix_tv = 0.5 * s.tv  # TV of the mixture flow is half the raw TV
        assert np.all(mix_tv <= np.sqrt(rd.V) + 1e-9)
        assert np.all(mix_tv <= np.sqrt(2.0 * rd.E) + 1e-9)

    def test_direct_when_minorized(self, gaussian_measure):
        rng = np.random.default_rng(71)
        h0 = 0.5 * (1.0 + random_density(gaussian_measure, rng))
        cfg = tv.SimConfig(dt=2e-3, t_end=0.5, save_every=50)
        s = tv.evolve(gaussian_measure, h0, cfg)
        assert not s.reverse_transformed
        rd = reverse_diagnostics(s)
        assert np.all(s.tv <= np.sqrt(rd.V) + 1e-9)
        assert np.all(s.tv <= np.sqrt(2.0 * rd.E) + 1e-9)

    def test_lower_bound_violation_detected(self, gaussian_measure):
        rng = np.random.default_rng(73)
        h0 = 0.5 * (1.0 + random_density(gaussian_measure, rng))
        cfg = tv.SimConfig(dt=2e-3, t_end=0.2, save_every=50)
        s = tv.evolve(gaussian_measure, h0, cfg)
        min_h = s.min_h.copy()
        min_h[-1] = 0.4  # doctored state simulating a solver defect
        s = tv.DiagnosticsSeries(**{**vars(s), "min_h": min_h})
        with pytest.raises(LowerBoundViolated):
            reverse_diagnostics(s)


class TestContraction:
    def test_identical_densities(self, gaussian_measure):
        h0 = step_density(gaussian_measure)
        cfg = tv.SimConfig(dt=2e-3, t_end=0.3, save_every=30)
        res = contraction_check(gaussian_measure, h0, h0.copy(), cfg)
        assert res["violations"] == 0
        assert np.max(res["l1_distance"]) < 1e-12

    def test_random_mixtures(self, gaussian_measure):
        rng = np.random.default_rng(79)
        cfg = tv.SimConfig(dt=2e-3, t_end=0.5, save_every=25)
        for _ in range(3):
            h0 = random_density(gaussian_measure, rng)
            g0 = random_density(gaussian_measure, rng, smooth=False)
            res = contraction_check(gaussian_measure, h0, g0, cfg)
            assert res["violations"] == 0

    def test_against_equilibrium_is_tv(self, gaussian_measure):
        h0 = step_density(gaussian_measure)
        cfg = tv.SimConfig(dt=2e-3, t_end=0.4, save_every=20)
        res = contraction_check(gaussian_measure, h0, np.ones(4001), cfg)
        s = tv.evolve(gaussian_measure, h0, cfg)
        assert np.allclose(res["l1_distance"], s.tv, atol=1e-12)


class TestSaveIntervals:
    """Implicit Euler advances across a save gap of at most 64 steps
    (`simulate._SERIES_GAP`) in one `solve` call, in place, with the same
    arithmetic as one call per step.  A longer gap takes the 40-solve series
    (TestLongSaveGaps)."""

    N_STEPS = 22

    @pytest.mark.parametrize("every", [1, 3, 7, N_STEPS, N_STEPS + 5])
    def test_saved_states_are_those_of_every_step(self, every):
        mu = tv.build_measure(tv.PotentialSpec.power(4.0), 401)
        h0 = shifted_gaussian_density(mu, 0.5)

        def run(save_every):
            config = tv.SimConfig(dt=0.01, t_end=0.01 * self.N_STEPS, save_every=save_every)
            return tv.evolve(mu, h0, config, keep_states=True)
        got, each = run(every), run(1)
        saved = sorted(set(range(0, self.N_STEPS + 1, every)) | {self.N_STEPS})
        assert len(got.states) == len(saved)
        assert np.array_equal(got.times, each.times[saved])
        assert np.array_equal(got.tv, each.tv[saved])
        for state, k in zip(got.states, saved):
            assert np.array_equal(state, each.states[k])

    @pytest.mark.parametrize("every", [64, 65])
    def test_a_gap_of_64_steps_is_the_last_taken_step_by_step(self, every):
        mu = tv.build_measure(tv.PotentialSpec.power(4.0), 401)
        h0 = shifted_gaussian_density(mu, 0.5)

        def run(save_every):
            config = tv.SimConfig(dt=0.01, t_end=0.01 * 2 * every, save_every=save_every)
            return tv.evolve(mu, h0, config, keep_states=True)
        got, each = run(every), run(1)
        assert np.array_equal(got.times, each.times[::every])
        same = [np.array_equal(state, each.states[k])
                for state, k in zip(got.states, range(0, 2 * every + 1, every))]
        assert simulate._SERIES_GAP == 64
        assert same == [True, every == 64, every == 64]

    @staticmethod
    def _solver_and_rhs():
        mu = tv.build_measure(tv.PotentialSpec.gaussian(), 401)
        solve = _step_solver(mu.quadrature, simulate.generator(mu)[2], 0.01)
        return solve, shifted_gaussian_density(mu, 0.5)

    @pytest.mark.parametrize("steps", [1, 2, 9])
    def test_steps_equal_one_step_calls(self, steps):
        solve, rhs = self._solver_and_rhs()
        want = rhs
        for _ in range(steps):
            want = solve(want)
        assert np.array_equal(solve(rhs, steps), want)
        buffer = rhs.copy()
        assert solve(buffer, steps, out=buffer) is buffer
        assert np.array_equal(buffer, want)

    @pytest.mark.parametrize("into", ["none", "other", "rhs"])
    def test_zero_steps_copy_rhs(self, into):
        solve, rhs = self._solver_and_rhs()
        kept = rhs.copy()
        out = {"none": None, "other": np.empty_like(rhs), "rhs": rhs}[into]
        x = solve(rhs, 0, out=out)
        assert np.array_equal(x, kept) and np.array_equal(rhs, kept)
        assert x is not rhs if out is None else x is out

    @pytest.mark.parametrize("into", ["none", "other"])
    def test_rhs_unchanged(self, into):
        solve, rhs = self._solver_and_rhs()
        kept = rhs.copy()
        out = None if into == "none" else np.empty_like(rhs)
        x = solve(rhs, 5, out=out)
        assert np.array_equal(rhs, kept)
        assert x is not rhs and (out is None or x is out)

    @pytest.mark.parametrize("block_elems", [2 ** 14, 1])
    @pytest.mark.parametrize("bad_solve", [1, 10, 17, 31, 35])
    def test_breakdown_inside_an_interval(self, bad_solve, block_elems, monkeypatch):
        # 35 steps saved every 10: intervals of 10, 10, 10 and 5 solves.  The
        # stand-in dpttrs plants a nan in the result of solve `bad_solve`; a
        # block of 2^14 grid values, like any block of 5 or more rows of 101,
        # holds all 5 saves, and a one-row block (block_elems 1) diagnoses
        # every save as it is made.
        lapack = simulate._flapack()
        calls = []

        def dpttrs(d, e, b, overwrite_b=0):
            x, info = lapack.dpttrs(d, e, b, overwrite_b=overwrite_b)
            calls.append(len(x))
            if len(calls) == bad_solve:
                x[len(x) // 2] = np.nan
            return x, info

        monkeypatch.setattr(simulate, "_flapack", lambda: SimpleNamespace(
            dpttrf=lapack.dpttrf, dpttrs=dpttrs))
        monkeypatch.setattr(simulate, "_BLOCK_ELEMS", block_elems)
        mu = tv.build_measure(tv.PotentialSpec.gaussian(), 101)
        config = tv.SimConfig(dt=0.01, t_end=0.35, save_every=10)
        with pytest.raises(SolverBreakdown, match="not finite"):
            tv.evolve(mu, step_density(mu), config)
        # raised at the save that ends the interval of the bad solve
        assert len(calls) == min(-(-bad_solve // 10) * 10, 35)


class TestLongSaveGaps:
    """Both schemes cross a save gap of k steps, k > 64 under implicit Euler
    and k > 0 under the spectral scheme, as the 41-term series of their
    `simulate.FLOWS` row's f_k on one `_step_solver` at k dt / 10, from the
    previous save.  Implicit Euler's series states are those of k direct steps
    to round-off: each step of the direct run may add about eps to the
    relative L^2(mu) difference, most of it the direct run's own mass drift,
    so the bound is 8 eps per step (the worst read 3.1e-16 per step, and
    8.3e-13 after 3000 steps).  Each gap is rescaled to the previous save's
    mass and clipped at 0."""

    POTENTIALS = {
        "gaussian": tv.PotentialSpec.gaussian(),
        "power1": tv.PotentialSpec.power(1.0),
        "power4": tv.PotentialSpec.power(4.0),
        "tabulated": tv.PotentialSpec.tabulated(
            np.linspace(-25.0 ** 0.25, 25.0 ** 0.25, 40),
            np.linspace(-25.0 ** 0.25, 25.0 ** 0.25, 40) ** 4),
    }

    @pytest.fixture(scope="class")
    def measures(self):
        return {}

    def measure(self, measures, name, n):
        if (name, n) not in measures:
            measures[name, n] = tv.build_measure(self.POTENTIALS[name], n)
        return measures[name, n]

    @pytest.mark.parametrize("gap", [65, 80, 100, 1000])
    @pytest.mark.parametrize("start", ["shifted", "step"])
    @pytest.mark.parametrize("n", [401, 1001])
    @pytest.mark.parametrize("name", list(POTENTIALS))
    def test_states_are_those_of_every_step(self, measures, name, n, start, gap):
        mu = self.measure(measures, name, n)
        q, dt = mu.quadrature, 1e-3
        h0 = shifted_gaussian_density(mu, 0.5) if start == "shifted" else step_density(mu)
        config = tv.SimConfig(dt=dt, t_end=3 * gap * dt, save_every=gap)
        got = tv.evolve(mu, h0, config, keep_states=True)
        assert len(got.states) == 4
        solve = _step_solver(q, simulate.generator(mu)[2], dt)
        want = h0
        for k, (before, state) in enumerate(zip(got.states, got.states[1:]), 1):
            want = solve(want, gap)
            error = math.sqrt(q @ (state - want) ** 2 / (q @ want ** 2))
            assert error <= 8 * np.finfo(float).eps * k * gap, (k, error)
            assert abs(q @ state - q @ before) <= 1e-15 * (q @ before)
            assert state.min() >= 0.0

    @staticmethod
    def factored(monkeypatch, scheme, t_end, save_every):
        """The step lengths that a run at dt = 0.01 factors, in the order it
        factors them."""
        factored = []
        step_solver = simulate._step_solver

        def recorder(q, upper, step):
            factored.append(step)
            return step_solver(q, upper, step)
        monkeypatch.setattr(simulate, "_step_solver", recorder)
        mu = tv.build_measure(tv.PotentialSpec.gaussian(), 101)
        tv.evolve(mu, step_density(mu),
                  tv.SimConfig(dt=0.01, t_end=t_end, save_every=save_every, scheme=scheme))
        return factored

    @pytest.mark.parametrize("scheme, last", [("implicit_euler", 0.01),
                                              ("spectral", pytest.approx(0.03))])
    def test_one_factor_per_distinct_gap(self, scheme, last, monkeypatch):
        # 430 steps saved every 100: four gaps of 100 and a last one of 30,
        # which implicit Euler runs step by step on the dt factor; 470 steps
        # end on a gap of 70, which both schemes cross with the series.  Each
        # step length is factored when a gap first solves with it
        for t_end, gap in [(4.3, last), (4.7, pytest.approx(0.07))]:
            assert self.factored(monkeypatch, scheme, t_end, 100) == [
                pytest.approx(0.1), gap]

    @pytest.mark.parametrize("scheme, every, t_end, want", [
        ("spectral", 1, 0.05, [0.001]),
        ("spectral", 3, 0.1, [0.003, 0.001]),
        ("spectral", 100, 3.0, [0.1]),
        ("implicit_euler", 65, 1.95, [0.065])])
    def test_dt_is_factored_only_for_a_gap_that_steps_with_it(self, scheme, every, t_end,
                                                             want, monkeypatch):
        # a series gap of k steps solves with the step at k dt/10 alone, so a
        # spectral run, and an implicit Euler run whose gaps all exceed 64
        # steps, never factor dt = 0.01
        factored = self.factored(monkeypatch, scheme, t_end, every)
        assert factored == [pytest.approx(step) for step in want]
        assert 0.01 not in factored

    @staticmethod
    def series_reference(mu, h, dt, n_steps, every, scheme):
        """The saved states of a run, each gap crossed on its own factor: the
        direct steps, or the series summed in `evolve`'s order of rounding."""
        _, direct, f = simulate.FLOWS[scheme]
        q, upper = mu.quadrature, simulate.generator(mu)[2]
        h, states = h.copy(), [h.copy()]
        limit = max(1e-12, 16.0 * np.finfo(float).eps * float(np.linalg.norm(np.sqrt(q) * h)))
        steps = [*range(0, n_steps, every), n_steps]
        for gap in np.diff(steps):
            if gap <= direct:
                h = _step_solver(q, upper, dt)(h, gap)
                states.append(h.copy())
                continue
            table, solve = simulate._cheb_table(f(gap)), _step_solver(q, upper, gap * dt / 10)
            b1, b2, tmp = table[-1] * h, np.zeros_like(h), np.empty_like(h)
            for c in table[-2:0:-1]:
                b0 = solve(b1) * 4.0
                b0 += np.multiply(c, h, out=tmp)
                b0 -= np.multiply(2.0, b1, out=tmp)
                b0 -= b2
                b1, b2 = b0, b1
            row = solve(b1) * 2.0
            row += np.multiply(table[0], h, out=tmp)
            row -= b1
            row -= b2
            row *= (q @ h) / (q @ row)
            row[q < np.finfo(float).tiny] = h[q < np.finfo(float).tiny]
            assert -(np.minimum(row, 0.0) @ q) <= limit
            h = np.maximum(row, 0.0)
            states.append(h.copy())
        return states

    @pytest.mark.parametrize("every", [100, 65, 64, 50, 1])
    @pytest.mark.parametrize("scheme", list(simulate.FLOWS))
    def test_states_are_bitwise_those_of_one_factor_per_gap(self, gaussian_measure, scheme,
                                                           every):
        # an `ou_longrun`-shaped run (n = 4001, dt = 2e-4, step start): the
        # cached factors and tables give each save the same bits as a run
        # that factors every gap afresh
        mu, dt = gaussian_measure, 2e-4
        n_steps = 130 if every == 1 else 300
        h0 = step_density(mu)
        got = tv.evolve(mu, h0, tv.SimConfig(dt=dt, t_end=dt * n_steps, save_every=every,
                                             scheme=scheme), keep_states=True)
        want = self.series_reference(mu, h0, dt, n_steps, every, scheme)
        assert len(got.states) == len(want)
        for state, expected in zip(got.states, want):
            assert np.array_equal(state, expected)

    @pytest.mark.parametrize("fault", ["argument_reflected", "top_term_grown"])
    @pytest.mark.parametrize("scheme", list(simulate.FLOWS))
    def test_negative_mass_raises(self, scheme, fault, monkeypatch):
        # the series in -Y (c_k -> (-1)^k c_k) is far from positive; growing
        # its last term by 1e-3 leaves 2.9e-7 of negative mass at t = 0.1 on a
        # step start under implicit Euler, far above its limit of 1e-12.  The
        # tables are built when a gap first needs one
        cheb_table = simulate._cheb_table

        def planted(f):
            table = cheb_table(f)
            if fault == "argument_reflected":
                return table * (-1.0) ** np.arange(len(table))
            table[-1] += 1e-3
            return table
        monkeypatch.setattr(simulate, "_cheb_table", planted)
        mu = tv.build_measure(tv.PotentialSpec.gaussian(), 401)
        name = simulate.FLOWS[scheme][0]
        with pytest.raises(SolverBreakdown,
                           match=f"the {name} flow at t = 0.1 has negative mass"):
            tv.evolve(mu, step_density(mu),
                      tv.SimConfig(dt=1e-3, t_end=0.2, save_every=100, scheme=scheme))

    @pytest.mark.parametrize("solve", ["first", "last"])
    @pytest.mark.parametrize("block_elems", [2 ** 14, 1])
    @pytest.mark.parametrize("scheme", list(simulate.FLOWS))
    def test_non_finite_solve_raises(self, scheme, block_elems, solve, monkeypatch):
        # a nan from the first or the last series solve of the second gap (the
        # solves 41 and 80 of the run): the next solve's check, or after the
        # last solve the state's own, raises SolverBreakdown, never
        # NotADensity, even when the save is not the last of its block
        lapack = simulate._flapack()
        calls, bad = [], 41 if solve == "first" else 80

        def dpttrs(d, e, b, overwrite_b=0):
            x, info = lapack.dpttrs(d, e, b, overwrite_b=overwrite_b)
            calls.append(len(x))
            if len(calls) == bad:
                x[len(x) // 2] = np.nan
            return x, info

        monkeypatch.setattr(simulate, "_flapack", lambda: SimpleNamespace(
            dpttrf=lapack.dpttrf, dpttrs=dpttrs))
        monkeypatch.setattr(simulate, "_BLOCK_ELEMS", block_elems)
        mu = tv.build_measure(tv.PotentialSpec.gaussian(), 101)
        name = simulate.FLOWS[scheme][0]
        with pytest.raises(SolverBreakdown, match="right-hand side is not finite"
                           if solve == "first" else f"the {name} flow at t = 2 is not finite"):
            tv.evolve(mu, step_density(mu),
                      tv.SimConfig(dt=0.01, t_end=3.0, save_every=100, scheme=scheme))
        assert len(calls) == bad


class TestSeriesTables:
    @pytest.mark.parametrize("scheme, k", [("spectral", 1), ("implicit_euler", 65),
                                           ("implicit_euler", 100), ("implicit_euler", 10 ** 3),
                                           ("implicit_euler", 10 ** 6)])
    def test_series_is_within_4e_15_of_f(self, scheme, k):
        # the 41-term series that crosses a gap of k steps against the f_k it
        # interpolates, on a log grid of x = k dt lambda up to 1e8 (3.8e-15 for
        # e^{-x}, 3.1e-15 ... 4.0e-15 for implicit Euler's (1 + x/k)^{-k})
        f = simulate.FLOWS[scheme][2](k)
        x = np.concatenate([[0.0], np.logspace(-8, 8, 1601)])
        series = np.polynomial.chebyshev.chebval(2 / (1 + x / 10) - 1, simulate._cheb_table(f))
        assert np.max(np.abs(series - f(x))) <= 4e-15


class TestStepSolver:
    """A step the factored solve cannot take raises SolverBreakdown, which the
    CLI reports as exit 3, not a scipy LinAlgError or ValueError."""

    @pytest.mark.parametrize("q, upper", [
        # faces c = -1 zero the first diagonal entry of Q(I - dt*L)
        (np.ones(5), np.full(5, -2.0)),
        # Q(I - dt*L) = [[0, 1, 0], [1, 0, 0], [0, 0, 1]] is indefinite
        (np.ones(3), np.array([-2.0, 0.0, 0.0]))])
    def test_singular_matrix(self, q, upper):
        with pytest.raises(SolverBreakdown, match="not positive definite"):
            _step_solver(q, upper, 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix(self, bad):
        upper = np.ones(5)
        upper[2] = bad
        with pytest.raises(SolverBreakdown, match="not finite"):
            _step_solver(np.full(5, 0.2), upper, 0.1)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_rhs(self, bad):
        solve = _step_solver(np.full(5, 0.2), np.ones(5), 0.1)
        rhs = np.ones(5)
        assert np.all(np.isfinite(solve(rhs)))
        rhs[3] = bad
        with pytest.raises(SolverBreakdown, match="right-hand side"):
            solve(rhs)

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("bad", ["nan", "+inf", "-inf", "inf_pair"])
    def test_any_non_finite_rhs_entry_raises(self, bad, where):
        # the step checks the sum first; each of these makes it non-finite
        n = 7
        solve = _step_solver(np.full(n, 0.2), np.ones(n), 0.1)
        k = {"first": 0, "middle": n // 2, "last": n - 1}[where]
        rhs = np.ones(n)
        if bad == "inf_pair":
            # inf + (-inf) is nan, whichever comes first in the sum
            rhs[k], rhs[(k + 1) % n] = np.inf, -np.inf
        else:
            rhs[k] = float(bad)
        with pytest.raises(SolverBreakdown, match="right-hand side is not finite"):
            solve(rhs)

    def test_finite_rhs_with_overflowing_sum_is_solved(self):
        solve = _step_solver(np.full(5, 0.2), np.ones(5), 0.1)
        rhs = np.full(5, 1e308)
        with np.errstate(over="ignore"):
            assert not math.isfinite(rhs.sum())
            x = solve(rhs)
        assert x.shape == (5,)

    @pytest.mark.parametrize("scheme", ["implicit_euler", "spectral"])
    def test_evolve_raises(self, scheme, monkeypatch):
        # both schemes factor the step, which reads the generator's upper
        # diagonal only
        mu = tv.build_measure(tv.PotentialSpec.gaussian(), 101)
        lower, diag, upper = simulate.generator(mu)
        monkeypatch.setattr(simulate, "generator",
                            lambda _: (lower, diag, np.full_like(upper, np.nan)))
        with pytest.raises(SolverBreakdown):
            tv.evolve(mu, step_density(mu), tv.SimConfig(dt=0.01, t_end=0.1, scheme=scheme))


# Runs in a fresh interpreter: loads LAPACK through `_flapack`, with
# `scipy.linalg` imported before or after, and checks that the routines are
# scipy.linalg.lapack's own and that scipy.linalg still works.
LOADER_CHILD = """
import sys
import numpy as np
import tvdecay as tv
from tvdecay import simulate
from tvdecay.inequalities import spectral_gap
if sys.argv[1] == "linalg-first":
    import scipy.linalg
assert ("scipy.linalg" in sys.modules) == (sys.argv[1] == "linalg-first")
loaded = simulate._flapack()
mu = tv.build_measure(tv.PotentialSpec.gaussian(), 201)
for scheme in ("implicit_euler", "spectral"):
    config = tv.SimConfig(dt=0.01, t_end=0.1, scheme=scheme)
    series = tv.evolve(mu, tv.measures.step_density(mu), config)
    assert np.all(np.diff(series.tv) <= 0)
assert ("scipy.linalg" in sys.modules) == (sys.argv[1] == "linalg-first")
from scipy.linalg import lapack
assert loaded.dpttrf is lapack.dpttrf and loaded.dpttrs is lapack.dpttrs
assert sys.modules[simulate._FLAPACK] is loaded
assert 0.9 < spectral_gap(mu).gap < 1.1
"""


class TestLapackLoader:
    """`_flapack` loads scipy's LAPACK extension without the `scipy.linalg`
    package, and its routines are the ones scipy.linalg.lapack exports."""

    @pytest.mark.parametrize("order", ["direct-first", "linalg-first"])
    def test_same_routines_as_scipy_linalg(self, order):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", LOADER_CHILD, order], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]

    def test_fallback_when_extension_not_found(self, monkeypatch):
        from scipy.linalg import lapack

        class NoSpec:
            def __init__(self, path, *loaders):
                pass

            def find_spec(self, name):
                return None

        q, upper = np.full(5, 0.2), np.ones(5)
        rhs = np.linspace(1.0, 2.0, 5)
        direct = _step_solver(q, upper, 0.1)(rhs)
        monkeypatch.delitem(sys.modules, simulate._FLAPACK)
        monkeypatch.setattr(simulate, "FileFinder", NoSpec)
        loaded = simulate._flapack()
        assert loaded.dpttrf is lapack.dpttrf and loaded.dpttrs is lapack.dpttrs
        assert simulate._FLAPACK not in sys.modules
        assert np.array_equal(_step_solver(q, upper, 0.1)(rhs), direct)
