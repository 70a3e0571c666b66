import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import tvdecay as tv
from tvdecay.envelopes import _k_infimum, _moment_guard
from tvdecay.psi import PsiProfile, build_psi_from_eta, eta_entropy, eta_quadratic


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


# -- test-only references: classical psi profiles and the direct K infimum --------

def psi_from_functions(psi, psi_prime, psi_second, name="psi[custom]") -> PsiProfile:
    """Wrap given callables u -> f(u) as `PsiProfile`'s f(u, out=None,
    mask=None), which copy f(u) into out when it is given; admissibility is
    only probed numerically, by computing c_pinsker here (it raises
    NotPinskerAdmissible)."""
    def with_out(f):
        def g(u, out=None, mask=None):
            value = f(u)
            if out is None:
                return value
            out[...] = value
            return out
        return g

    prof = PsiProfile(a=2.1, psi=with_out(psi), psi_prime=with_out(psi_prime),
                      psi_second=with_out(psi_second), name=name)
    prof.c_pinsker
    return prof


def psi_quadratic_centered() -> PsiProfile:
    """psi(u) = (u - 1)^2, the classical variance profile (c_psi = sqrt 2)."""
    return psi_from_functions(
        lambda u: (np.asarray(u, float) - 1.0) ** 2,
        lambda u: 2.0 * (np.asarray(u, float) - 1.0),
        lambda u: np.full_like(np.asarray(u, float), 2.0),
        name="psi[(u-1)^2]")


def psi_entropy_classical() -> PsiProfile:
    """psi(u) = u log u, the Kullback-Leibler profile."""
    def p(u):
        u = np.asarray(u, float)
        out = np.zeros_like(u)
        pos = u > 0
        out[pos] = u[pos] * np.log(u[pos])
        return out

    return psi_from_functions(
        p,
        lambda u: np.log(np.maximum(np.asarray(u, float), 1e-300)) + 1.0,
        lambda u: 1.0 / np.maximum(np.asarray(u, float), 1e-300),
        name="psi[ulogu]")


def psi_almost_linear() -> PsiProfile:
    """psi(u) = u - 3/2 + 1/(u+1), the almost-linear profile of the
    liminf variant (psi(u)/u -> 1 with positive drift d = 1/4)."""
    return psi_from_functions(
        lambda u: np.asarray(u, float) - 1.5 + 1.0 / (np.asarray(u, float) + 1.0),
        lambda u: 1.0 - (np.asarray(u, float) + 1.0) ** -2,
        lambda u: 2.0 * (np.asarray(u, float) + 1.0) ** -3,
        name="psi[almost-linear]")


def legendre_conjugate_brute(gamma_vals: np.ndarray, u: np.ndarray, y: np.ndarray):
    """gamma*(y) = max_j (y u_j - gamma_j) over every u, in blocks of y rows
    whose (rows x u) temporary stays near 1 MB: the reference for the
    pruned `inequalities._legendre_conjugate`."""
    rows = max(1, (1 << 20) // (8 * len(u)))
    out = np.empty(len(y))
    for k in range(0, len(y), rows):
        block = np.multiply.outer(y[k:k + rows], u)
        block -= gamma_vals
        out[k:k + rows] = block.max(axis=1)
    return out


def truncation_poincare_k_optimized(C_P: float, phi, moment: float, t: float) -> float:
    """The two-term infimum inf_K [ sqrt(K) e^{-t/2C_P} + 2m/phi(K) ] over
    log K in [log 2, 700] (using Var(h ^ K) <= K)."""
    m = _moment_guard(moment)
    decay = math.exp(-t / (2.0 * C_P))
    return _k_infimum(lambda K: np.sqrt(K) * decay, phi, m, math.exp(700.0))


def load_benchmark_module(name: str):
    """benchmark/<name>.py, imported read-only as the module benchmark_<name>
    once per session: registered before it runs, since its dataclasses look
    their module up in sys.modules."""
    key = f"benchmark_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            key, Path(__file__).parents[1] / "benchmark" / f"{name}.py")
        sys.modules[key] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[key]
