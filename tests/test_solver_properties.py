"""Property tests of the discrete Fokker-Planck solver.

Random |x/scale|^alpha potentials (1 <= alpha <= 4) on grids of at most 401
points, started from random mixtures of the config's initial densities.
Implicit Euler is an M-matrix scheme that conserves the mu-weighted mass, so
these hold up to round-off for every such input, not just on average.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import tvdecay as tv
from tvdecay.config import INITIAL
from tvdecay.errors import NotADensity
from tvdecay.measures import shifted_gaussian_density
from tvdecay.simulate import contraction_check

# derandomized and without a per-example deadline: the same examples on every
# run, however loaded the machine is
PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=25)
TABLE = np.array([[-3.0, 0.5], [-1.0, 2.0], [1.0, 0.2], [3.0, 1.0]])
# Measuring the mass sums n terms, so it carries up to about n eps of round-off.
# The banded solve's round-off scales with max h0, not with the mass: the mass
# drifts by up to about 5 eps per step per unit of max(1, max h0).  Beyond
# max h0 ~ 1e12 that can pass the 1e-6 the density check allows, and evolve
# raises: see test_mass_drift_at_extreme_dynamic_range.
MAX_H0 = 1e12


@st.composite
def scenarios(draw):
    spec = tv.PotentialSpec.power(draw(st.floats(1.0, 4.0)), draw(st.floats(0.5, 2.0)))
    mu = tv.build_measure(spec, draw(st.integers(101, 401)))
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


@PROPERTY_SETTINGS
@given(scenarios())
def test_mass_positivity_and_monotone_functionals(scenario):
    mu, h0, config = scenario
    s = tv.evolve(mu, h0, config)
    steps = round(config.t_end / config.dt)
    round_off = np.finfo(float).eps * (len(mu.grid) + 8 * steps * max(1.0, h0.max()))
    assert np.max(np.abs(s.mass - 1.0)) <= round_off
    assert np.all(s.min_h >= 0.0)
    for series in (s.tv, s.variance, s.entropy):
        assert np.all(np.diff(series) <= 1e-12 * (1.0 + abs(series[0])))


@PROPERTY_SETTINGS
@given(scenarios(), st.integers(0, 2**32 - 1))
def test_l1_contraction(scenario, seed):
    mu, h0, config = scenario
    g0 = np.random.default_rng(seed).uniform(0.1, 2.0, mu.grid.shape)
    g0 = g0 / tv.integrate(mu, g0)
    assert contraction_check(mu, h0, g0, config)["violations"] == 0


@pytest.mark.xfail(raises=NotADensity, strict=True,
                   reason="known defect: mass drifts by ~1e-6 when max h0 ~ 1e15")
def test_mass_drift_at_extreme_dynamic_range():
    # |x/0.5|^4 shifted by 0.7: h0 reaches 7e15 in the left tail
    mu = tv.build_measure(tv.PotentialSpec.power(4.0, 0.5), 1001)
    h0 = shifted_gaussian_density(mu, 0.7)
    s = tv.evolve(mu, h0, tv.SimConfig(dt=0.01, t_end=0.3))
    assert np.max(np.abs(s.mass - 1.0)) < 1e-12
