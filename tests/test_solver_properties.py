"""Property tests of the discrete Fokker-Planck solver.

Random |x/scale|^alpha potentials (1 <= alpha <= 4), given in closed form or
as a tabulated sample, on grids of at most 401 points, started from random
mixtures of the config's initial densities.
Implicit Euler is an M-matrix scheme that conserves the mu-weighted mass, so
these hold up to round-off for every such input, not just on average; the
spectral scheme runs the same generator exactly in time, and they hold for it
too, positivity after its clip at 0.
Each implicit step solves the symmetric positive definite Q(I - dt*L) x =
q*rhs with LAPACK dpttrf/dpttrs, whose columns sum to q: the mass is conserved
relative to 1 whatever max h0 is.  The step reads only the generator's `upper`,
through the detailed balance q_i upper_i = q_{i+1} lower_{i+1}; its states
agree with scipy's `solve_banded` on I - dt*L to round-off, and each step's
residual is checked componentwise.  The spectral states agree with scipy's
dense `expm` of t*L.
"""

import inspect
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.internal.conjecture import providers

import tvdecay as tv
from tvdecay.config import INITIAL
from tvdecay.measures import generator, shifted_gaussian_density, step_density
from tvdecay import simulate
from conftest import contraction_check

# derandomized and without a per-example deadline: the same examples on every
# run, however loaded the machine is
PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=25)


@pytest.fixture(autouse=True, scope="module")
def no_local_constants():
    """Hypothesis also draws, with p = 0.05 per draw, a literal of any local
    module that is loaded (`providers._get_local_constants`), so the examples
    of a derandomized test would depend on which modules the suite imported
    before it.  In this module it draws from its own constants only, and the
    examples depend on the strategies alone."""
    providers.CONSTANTS_CACHE.cache.clear()
    with mock.patch.object(providers, "_get_local_constants", providers.Constants):
        yield
    providers.CONSTANTS_CACHE.cache.clear()


TABLE = np.array([[-3.0, 0.5], [-1.0, 2.0], [1.0, 0.2], [3.0, 1.0]])
# Measuring the mass sums n terms, so it carries up to about n eps of round-off.
# Each step's columns sum to q, so the step adds a few eps of drift relative to
# 1, not to max h0: see test_mass_drift_at_extreme_dynamic_range.


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
              "path": TABLE}
    weights = [draw(st.floats(0.0, 1.0)) for _ in INITIAL]
    assume(sum(weights) > 0.0)
    starts = [make(*(params[key] for key in keys)) for make, keys in INITIAL.values()]
    h0 = sum(w * start(mu)[0] for w, start in zip(weights, starts))
    h0 = h0 / sum(weights)
    # t_end must be a whole number of steps: the 3 to 300 steps of dt nearest 0.3
    dt = draw(st.floats(1e-3, 0.1))
    config = tv.SimConfig(dt=dt, t_end=round(0.3 / dt) * dt, save_every=draw(st.integers(1, 5)))
    return mu, h0, config


def check_mass_positivity_and_monotone_functionals(scenario, scheme="implicit_euler"):
    mu, h0, config = scenario
    s = tv.evolve(mu, h0, tv.SimConfig(**{**vars(config), "scheme": scheme}))
    steps = round(config.t_end / config.dt)
    round_off = np.finfo(float).eps * (len(mu.grid) + 8 * steps)
    assert np.max(np.abs(s.mass - 1.0)) <= round_off
    assert np.all(s.min_h >= 0.0)
    for series in (s.tv, s.variance, s.entropy):
        assert np.all(np.diff(series) <= 1e-12 * (1.0 + abs(series[0])))


def check_l1_contraction(scenario, seed, scheme="implicit_euler"):
    mu, h0, config = scenario
    g0 = np.random.default_rng(seed).uniform(0.1, 2.0, mu.grid.shape)
    g0 = g0 / tv.integrate(mu, g0)
    config = tv.SimConfig(**{**vars(config), "scheme": scheme})
    assert contraction_check(mu, h0, g0, config)["violations"] == 0


SCHEMES = ("implicit_euler", "spectral")


@pytest.mark.parametrize("scheme", SCHEMES)
@PROPERTY_SETTINGS
@given(scenarios(power_potentials()))
def test_mass_positivity_and_monotone_functionals(scheme, scenario):
    check_mass_positivity_and_monotone_functionals(scenario, scheme)


@pytest.mark.parametrize("scheme", SCHEMES)
@PROPERTY_SETTINGS
@given(scenarios(power_potentials()), st.integers(0, 2**32 - 1))
def test_l1_contraction(scheme, scenario, seed):
    check_l1_contraction(scenario, seed, scheme)


@pytest.mark.parametrize("scheme", SCHEMES)
@PROPERTY_SETTINGS
@given(scenarios(tabulated_potentials()))
def test_tabulated_mass_positivity_and_monotone_functionals(scheme, scenario):
    check_mass_positivity_and_monotone_functionals(scenario, scheme)


@pytest.mark.parametrize("scheme", SCHEMES)
@PROPERTY_SETTINGS
@given(scenarios(tabulated_potentials()), st.integers(0, 2**32 - 1))
def test_tabulated_l1_contraction(scheme, scenario, seed):
    check_l1_contraction(scenario, seed, scheme)


def one_save_gap(scenario, gap):
    """The scenario's run to t_end in `gap` steps, saved only at t_end: one gap
    of more than `_SERIES_GAP` steps, which both schemes cross with their
    40-solve series."""
    mu, h0, config = scenario
    return mu, h0, tv.SimConfig(**{**vars(config), "dt": config.t_end / gap,
                                   "save_every": gap})


GAPS = st.integers(simulate._SERIES_GAP + 1, 300)


@pytest.mark.parametrize("scheme", SCHEMES)
@PROPERTY_SETTINGS
@given(scenarios(power_potentials()), GAPS, st.integers(0, 2**32 - 1))
def test_one_save_gap(scheme, scenario, gap, seed):
    check_mass_positivity_and_monotone_functionals(one_save_gap(scenario, gap), scheme)
    check_l1_contraction(one_save_gap(scenario, gap), seed, scheme)


@pytest.mark.parametrize("scheme", SCHEMES)
@PROPERTY_SETTINGS
@given(scenarios(tabulated_potentials()), GAPS, st.integers(0, 2**32 - 1))
def test_tabulated_one_save_gap(scheme, scenario, gap, seed):
    check_mass_positivity_and_monotone_functionals(one_save_gap(scenario, gap), scheme)
    check_l1_contraction(one_save_gap(scenario, gap), seed, scheme)


def test_mass_drift_at_extreme_dynamic_range():
    # |x/0.5|^4 shifted by 0.7: h0 reaches 7e15 in the left tail
    mu = tv.build_measure(tv.PotentialSpec.power(4.0, 0.5), 1001)
    h0 = shifted_gaussian_density(mu, 0.7)
    # the same bounds as any drawn start: the mass round-off does not scale with max h0
    check_mass_positivity_and_monotone_functionals((mu, h0, tv.SimConfig(dt=0.01, t_end=0.3)))


def test_underflowing_quadrature():
    # V = x^2 tabulated on [-30, 30]: q underflows to 0 in both tails, where
    # the cells carry no mass; the step stays definite and conserves the mass,
    # and the TV is the pivoted LU's
    x = np.linspace(-30.0, 30.0, 61)
    mu = tv.build_measure(tv.PotentialSpec.tabulated(x, x**2), 401)
    assert np.any(mu.quadrature == 0.0)
    h0 = shifted_gaussian_density(mu, 0.5)
    config = tv.SimConfig(dt=0.01, t_end=0.1)
    s = tv.evolve(mu, h0, config)
    assert np.max(np.abs(s.mass - 1.0)) < 1e-14
    with mock.patch.object(simulate, "_step_solver", banded_reference_solver(mu)):
        want = tv.evolve(mu, h0, config)
    np.testing.assert_allclose(s.tv, want.tv, rtol=1e-10)


def banded_reference_solver(mu):
    """A stand-in for `_step_solver`: solve(rhs, steps, out) applies
    (I - dt*L)^{-1} to rhs `steps` times by scipy's solve_banded on the
    (3, n) banded layout of all three of mu's generator diagonals, a pivoted
    LU factored again on every step."""
    from scipy.linalg import solve_banded

    lower, diag, upper = generator(mu)

    def step_solver(q, upper_, dt):
        ab = np.zeros((3, len(diag)))
        ab[0, 1:] = -dt * upper[:-1]
        ab[1, :] = 1.0 - dt * diag
        ab[2, :-1] = -dt * lower[1:]

        def solve(rhs, steps=1, out=None):
            x = rhs
            for _ in range(steps):
                x = solve_banded((1, 1), ab, x)
            if out is None:
                return x
            out[:] = x
            return out
        return solve
    return step_solver


def check_matches_banded_reference(mu, h0, config):
    """The states agree with the pivoted LU of I - dt*L to round-off: every
    series field within 1e-10 relative, every state within 1e-12 in L1(mu).
    A field value below 1e-14, such as the TV of a start at equilibrium, is
    round-off in both runs, so that much absolute difference is allowed too."""
    got = tv.evolve(mu, h0, config, keep_states=True)
    with mock.patch.object(simulate, "_step_solver", banded_reference_solver(mu)):
        want = tv.evolve(mu, h0, config, keep_states=True)
    for field in inspect.signature(type(got)).parameters.values():
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "states":
            l1 = [tv.integrate(mu, np.abs(x - y)) for x, y in zip(a, b)]
            assert len(a) == len(b) and max(l1) <= 1e-12, max(l1)
        else:
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-14, err_msg=field.name)


STEP_SOLVER = simulate._step_solver


def residual_checked_solver(q, upper, dt):
    """simulate's own step solver, run one step at a time with every step
    checked componentwise: |S x - q r| <= 8 eps (|S| |x| + q |r|),
    S = Q(I - dt*L)."""
    solve = STEP_SOLVER(q, upper, dt)
    c = dt * q[:-1] * upper[:-1]
    d = q.copy()
    d[:-1] += c
    d[1:] += c

    def checked(rhs, steps=1, out=None):
        x = rhs
        for _ in range(steps):
            rhs, x = x, solve(x)
            sx, size = d * x, d * np.abs(x)
            sx[:-1] -= c * x[1:]
            sx[1:] -= c * x[:-1]
            size[:-1] += c * np.abs(x[1:])
            size[1:] += c * np.abs(x[:-1])
            bound = 8 * np.finfo(float).eps * (size + q * np.abs(rhs))
            assert np.all(np.abs(sx - q * rhs) <= bound)
        if out is None:
            return x
        out[:] = x
        return out
    return checked


FIXED_POTENTIALS = {
    "gaussian": tv.PotentialSpec.gaussian(),
    "power4": tv.PotentialSpec.power(4.0),
    "tabulated": tv.PotentialSpec.tabulated(
        np.linspace(-25.0 ** 0.25, 25.0 ** 0.25, 40),
        np.linspace(-25.0 ** 0.25, 25.0 ** 0.25, 40) ** 4),
}


@pytest.mark.parametrize("n", [401, 4001])
@pytest.mark.parametrize("name", FIXED_POTENTIALS)
def test_detailed_balance(name, n):
    # the step reads only `upper`: S's lower half is q_{i+1} lower_{i+1} by this identity
    mu = tv.build_measure(FIXED_POTENTIALS[name], n)
    lower, _, upper = generator(mu)
    q = mu.quadrature
    forward, backward = q[:-1] * upper[:-1], q[1:] * lower[1:]
    assert np.all(forward > 0.0)
    assert np.max(np.abs(forward - backward) / forward) <= 1e-10


@pytest.mark.parametrize("name", FIXED_POTENTIALS)
def test_factored_step_matches_solve_banded(name):
    mu = tv.build_measure(FIXED_POTENTIALS[name], 401)
    config = tv.SimConfig(dt=0.01, t_end=0.5)
    check_matches_banded_reference(mu, shifted_gaussian_density(mu, 0.5), config)


@settings(PROPERTY_SETTINGS, max_examples=10)
@given(scenarios(st.one_of(st.sampled_from(list(FIXED_POTENTIALS.values())),
                           power_potentials(), tabulated_potentials())))
def test_factored_step_matches_solve_banded_drawn(scenario):
    mu, h0, config = scenario
    # the pivoted LU's own round-off scales with max h0: its mass leaves the
    # density check's 1e-6 near max h0 ~ 1e15, so it is a reference below that
    assume(h0.max() <= 1e12)
    check_matches_banded_reference(mu, h0, config)


@pytest.mark.parametrize("name", FIXED_POTENTIALS)
def test_step_residual(name):
    mu = tv.build_measure(FIXED_POTENTIALS[name], 401)
    config = tv.SimConfig(dt=0.01, t_end=0.5)
    with mock.patch.object(simulate, "_step_solver", residual_checked_solver):
        tv.evolve(mu, shifted_gaussian_density(mu, 0.5), config)


@pytest.mark.parametrize("start", ["shifted", "step"])
@pytest.mark.parametrize("name", FIXED_POTENTIALS)
def test_spectral_matches_expm(name, start):
    # e^{tL} h0 from scipy's dense scaling-and-squaring expm of 0.1 L, applied
    # once per save
    from scipy.linalg import expm

    mu = tv.build_measure(FIXED_POTENTIALS[name], 401)
    h0 = shifted_gaussian_density(mu, 0.5) if start == "shifted" else step_density(mu)
    config = tv.SimConfig(dt=0.1, t_end=1.0, scheme="spectral")
    got = tv.evolve(mu, h0, config, keep_states=True)
    lower, diag, upper = generator(mu)
    step = expm(0.1 * (np.diag(diag) + np.diag(upper[:-1], 1) + np.diag(lower[1:], -1)))
    want = h0
    for t, state in zip(got.times, got.states):
        assert tv.integrate(mu, np.abs(state - want)) <= 1e-12, t
        assert abs(tv.tv_distance(mu, state) - tv.tv_distance(mu, want)) <= 1e-12, t
        want = step @ want
