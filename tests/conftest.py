import numpy as np
import pytest

import tvdecay as tv
from tvdecay.psi import (
    build_psi_from_eta,
    eta_entropy,
    eta_quadratic,
    psi_almost_linear,
    psi_entropy_classical,
    psi_quadratic_centered,
)


@pytest.fixture(scope="session")
def gaussian_measure():
    """mu = N(0, 1/2), i.e. V(x) = x^2/2, the project's reference measure."""
    return tv.build_measure(tv.PotentialSpec.gaussian(), 4001)


@pytest.fixture(scope="session")
def gaussian_measure_even():
    """Same measure on an even-point grid: no node at x = 0, so two-valued
    step densities are represented exactly."""
    return tv.build_measure(tv.PotentialSpec.gaussian(), 4000)


@pytest.fixture(scope="session")
def exponential_measure():
    """mu = exp(-2|x|) dx (Z = 1)."""
    return tv.build_measure(tv.PotentialSpec.power(1.0), 4001)


@pytest.fixture(scope="session")
def psi_quad_spliced():
    """psi built from eta = u^2: equals (u^2 - u)/2 everywhere."""
    return build_psi_from_eta(eta_quadratic())


@pytest.fixture(scope="session")
def psi_entropy_spliced():
    return build_psi_from_eta(eta_entropy())


@pytest.fixture(scope="session")
def psi_centered():
    """psi(u) = (u - 1)^2."""
    return psi_quadratic_centered()


@pytest.fixture(scope="session")
def psi_ulogu():
    return psi_entropy_classical()


@pytest.fixture(scope="session")
def psi_linear():
    return psi_almost_linear()


def random_density(mu, rng, smooth=True):
    """A random positive unit-mass density on mu's grid."""
    x = mu.grid
    if smooth:
        c = rng.normal(size=4)
        f = (c[0] * np.sin(x) + c[1] * np.cos(2 * x)
             + c[2] * np.tanh(x) + c[3])
        h = np.exp(0.5 * np.tanh(f))
    else:
        knots = np.sort(rng.uniform(x[0], x[-1], size=6))
        vals = rng.uniform(0.05, 3.0, size=6)
        h = np.interp(x, knots, vals)
    return h / tv.integrate(mu, h)


def contraction_check(mu, h0, g0, config) -> dict:
    """Evolve two densities and count violations of the L^1 contraction
    int |h_t - g_t| dmu being non-increasing (slack 1e-8 per save)."""
    sh = tv.evolve(mu, h0, config, keep_states=True)
    sg = tv.evolve(mu, g0, config, keep_states=True)
    dists = np.array([tv.integrate(mu, np.abs(a - b))
                      for a, b in zip(sh.states, sg.states)])
    violations = int(np.sum(np.diff(dists) > 1e-8))
    return {"times": sh.times, "l1_distance": dists, "violations": violations}
