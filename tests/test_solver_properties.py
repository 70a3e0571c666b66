"""Property tests of the discrete Fokker-Planck solver.

Random |x/scale|^alpha potentials (1 <= alpha <= 4), given in closed form or
as a tabulated sample, on grids of at most 401 points, started from random
mixtures of the config's initial densities.
Implicit Euler is an M-matrix scheme that conserves the mu-weighted mass, so
these hold up to round-off for every such input, not just on average.
The step factored once (LAPACK dgttrf/dgttrs) gives bit for bit the states of
scipy's `solve_banded`, which factors the same matrix again on every step.
"""

import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import tvdecay as tv
from tvdecay.config import INITIAL
from tvdecay.errors import NotADensity
from tvdecay.measures import shifted_gaussian_density
from tvdecay import simulate
from conftest import contraction_check

# derandomized and without a per-example deadline: the same examples on every
# run, however loaded the machine is
PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=25)
TABLE = np.array([[-3.0, 0.5], [-1.0, 2.0], [1.0, 0.2], [3.0, 1.0]])
# Measuring the mass sums n terms, so it carries up to about n eps of round-off.
# The tridiagonal solve's round-off scales with max h0, not with the mass: the mass
# drifts by up to about 5 eps per step per unit of max(1, max h0).  Beyond
# max h0 ~ 1e12 that can pass the 1e-6 the density check allows, and evolve
# raises: see test_mass_drift_at_extreme_dynamic_range.
MAX_H0 = 1e12


@st.composite
def power_potentials(draw):
    return tv.PotentialSpec.power(draw(st.floats(1.0, 4.0)), draw(st.floats(0.5, 2.0)))


@st.composite
def tabulated_potentials(draw):
    """A drawn power potential sampled out to V = 25.  The sampled range is the
    truncation domain, and its ends pass build_measure's tail test: with 8
    or more samples the interpolant's minimum is below 25/7, so the pdf at
    the ends is below exp(-2 (25 - 25/7)) ~ 2e-19 times its peak."""
    power = draw(power_potentials())
    x_max = power.params["scale"] * 25.0 ** (1.0 / power.params["alpha"])
    x = np.linspace(-x_max, x_max, draw(st.integers(8, 400)))
    return tv.PotentialSpec.tabulated(x, power.V(x))


@st.composite
def scenarios(draw, potentials):
    mu = tv.build_measure(draw(potentials), draw(st.integers(101, 401)))
    params = {"epsilon": draw(st.floats(-1.0, 1.0)), "shift": draw(st.floats(-1.0, 1.0)),
              "p": draw(st.floats(0.5, 3.0)), "cap": draw(st.floats(2.0, 100.0)),
              "table": TABLE}
    weights = [draw(st.floats(0.0, 1.0)) for _ in INITIAL]
    assume(sum(weights) > 0.0)
    h0 = sum(w * INITIAL[fam](mu, params)[0] for w, fam in zip(weights, INITIAL))
    h0 = h0 / sum(weights)
    assume(h0.max() <= MAX_H0)
    config = tv.SimConfig(dt=draw(st.floats(1e-3, 0.1)), t_end=0.3,
                          save_every=draw(st.integers(1, 5)))
    return mu, h0, config


def check_mass_positivity_and_monotone_functionals(scenario):
    mu, h0, config = scenario
    s = tv.evolve(mu, h0, config)
    steps = round(config.t_end / config.dt)
    round_off = np.finfo(float).eps * (len(mu.grid) + 8 * steps * max(1.0, h0.max()))
    assert np.max(np.abs(s.mass - 1.0)) <= round_off
    assert np.all(s.min_h >= 0.0)
    for series in (s.tv, s.variance, s.entropy):
        assert np.all(np.diff(series) <= 1e-12 * (1.0 + abs(series[0])))


def check_l1_contraction(scenario, seed):
    mu, h0, config = scenario
    g0 = np.random.default_rng(seed).uniform(0.1, 2.0, mu.grid.shape)
    g0 = g0 / tv.integrate(mu, g0)
    assert contraction_check(mu, h0, g0, config)["violations"] == 0


@PROPERTY_SETTINGS
@given(scenarios(power_potentials()))
def test_mass_positivity_and_monotone_functionals(scenario):
    check_mass_positivity_and_monotone_functionals(scenario)


@PROPERTY_SETTINGS
@given(scenarios(power_potentials()), st.integers(0, 2**32 - 1))
def test_l1_contraction(scenario, seed):
    check_l1_contraction(scenario, seed)


@PROPERTY_SETTINGS
@given(scenarios(tabulated_potentials()))
def test_tabulated_mass_positivity_and_monotone_functionals(scenario):
    check_mass_positivity_and_monotone_functionals(scenario)


@PROPERTY_SETTINGS
@given(scenarios(tabulated_potentials()), st.integers(0, 2**32 - 1))
def test_tabulated_l1_contraction(scenario, seed):
    check_l1_contraction(scenario, seed)


@pytest.mark.xfail(raises=NotADensity, strict=True,
                   reason="known defect: mass drifts by ~1e-6 when max h0 ~ 1e15")
def test_mass_drift_at_extreme_dynamic_range():
    # |x/0.5|^4 shifted by 0.7: h0 reaches 7e15 in the left tail
    mu = tv.build_measure(tv.PotentialSpec.power(4.0, 0.5), 1001)
    h0 = shifted_gaussian_density(mu, 0.7)
    s = tv.evolve(mu, h0, tv.SimConfig(dt=0.01, t_end=0.3))
    assert np.max(np.abs(s.mass - 1.0)) < 1e-12


def banded_reference_solver(lower, diag, upper, alpha):
    """rhs -> (I - alpha*L)^{-1} rhs by scipy's solve_banded on the (3, n)
    banded layout, which factors the matrix again on every call."""
    from scipy.linalg import solve_banded

    ab = np.zeros((3, len(diag)))
    ab[0, 1:] = -alpha * upper[:-1]
    ab[1, :] = 1.0 - alpha * diag
    ab[2, :-1] = -alpha * lower[1:]
    return lambda rhs: solve_banded((1, 1), ab, rhs)


def check_matches_banded_reference(mu, h0, config):
    with warnings.catch_warnings():
        # large Crank-Nicolson steps oscillate, the same way in both runs
        warnings.simplefilter("ignore")
        got = tv.evolve(mu, h0, config, keep_states=True)
        with mock.patch.object(simulate, "_step_solver", banded_reference_solver):
            want = tv.evolve(mu, h0, config, keep_states=True)
    for field in dataclasses.fields(got):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "states":
            a, b = np.array(a), np.array(b)
        # max |diff| == 0.0: the same pivots and the same arithmetic
        np.testing.assert_array_equal(a, b, err_msg=field.name)


SCHEMES = ("implicit_euler", "crank_nicolson")
FIXED_POTENTIALS = {
    "gaussian": tv.PotentialSpec.gaussian(),
    "power4": tv.PotentialSpec.power(4.0),
    "tabulated": tv.PotentialSpec.tabulated(
        np.linspace(-25.0 ** 0.25, 25.0 ** 0.25, 40),
        np.linspace(-25.0 ** 0.25, 25.0 ** 0.25, 40) ** 4),
}


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", FIXED_POTENTIALS)
def test_factored_step_matches_solve_banded(name, scheme):
    mu = tv.build_measure(FIXED_POTENTIALS[name], 401)
    config = tv.SimConfig(dt=0.01, t_end=0.5, scheme=scheme)
    check_matches_banded_reference(mu, shifted_gaussian_density(mu, 0.5), config)


@settings(PROPERTY_SETTINGS, max_examples=10)
@given(scenarios(st.one_of(st.sampled_from(list(FIXED_POTENTIALS.values())),
                           power_potentials(), tabulated_potentials())),
       st.sampled_from(SCHEMES))
def test_factored_step_matches_solve_banded_drawn(scenario, scheme):
    mu, h0, config = scenario
    check_matches_banded_reference(mu, h0, dataclasses.replace(config, scheme=scheme))
