"""The flow on V = |x| against an exact total variation on the whole line.

With mu ~ exp(-2|x|) the generator is L f = f''/2 - sgn(x) f', and from the
step start h0 = 2 on x > 0 the flow is h(t, x) = 1 + sgn(x) P(T_|x| > t),
where T_a is the first time a Brownian motion with drift +1, started at 0,
reaches a: P(T_a <= t) = Phi((t - a)/sqrt t) + e^{2a} Phi((-t - a)/sqrt t).
So TV(t) = 2 int_0^inf P(T_a > t) e^{-2a} da, a quadrature that mpmath takes
to 30 digits.

The grid start gives the node at x = 0 its cell average, h = 1 (half the cell
lies above the median), so that the start's own error is second order like
the flow's.
"""

import numpy as np
import pytest

import tvdecay as tv
from tvdecay.measures import integrate

mpmath = pytest.importorskip("mpmath")

TIMES = (0.25, 1.0, 3.0, 6.0)


def line_tv(t: float) -> float:
    mp = mpmath.mp
    with mpmath.workdps(30):
        t = mp.mpf(t)
        root = mp.sqrt(t)

        def survives(a):    # P(T_a > t) e^{-2a}
            hit = mp.ncdf((t - a) / root) + mp.exp(2 * a) * mp.ncdf((-t - a) / root)
            return (1 - hit) * mp.exp(-2 * a)

        return float(2 * mp.quad(survives, [0, t, mp.inf]))


@pytest.fixture(scope="module")
def exact():
    return np.array([line_tv(t) for t in TIMES])


def half_cell_step(mu):
    h = np.where(mu.grid > 0.0, 2.0, 0.0)
    mid = np.argmin(np.abs(mu.grid))
    assert abs(mu.grid[mid]) < 1e-9 * mu.dx     # an odd n puts a node on the median
    h[mid] = 1.0
    return h / integrate(mu, h)


def flow_error(n: int, scheme: str, dt: float, exact) -> np.ndarray:
    """The relative TV error at TIMES of the flow on an n-point grid."""
    mu = tv.build_measure(tv.PotentialSpec.power(1.0), n)
    s = tv.evolve(mu, half_cell_step(mu), tv.SimConfig(
        dt=dt, t_end=TIMES[-1], scheme=scheme, save_every=round(0.25 / dt)))
    at = [int(np.argmin(np.abs(s.times - t))) for t in TIMES]
    assert np.allclose(s.times[at], TIMES, rtol=0.0, atol=1e-9)
    return np.abs(s.tv[at] / exact - 1.0)


def test_the_quadrature_gives_the_known_values(exact):
    assert exact[0] == pytest.approx(0.41927852, abs=5e-9)
    assert exact[1] == pytest.approx(0.15067957, abs=5e-9)
    assert exact[3] == pytest.approx(0.0028368024, abs=5e-11)


def test_spectral_flow_matches_the_line_to_second_order(exact):
    err = [flow_error(n, "spectral", 0.25, exact) for n in (1001, 2001, 4001, 8001)]
    assert np.all(err[0] <= 2e-3), err[0]
    for coarse, fine in zip(err, err[1:]):
        assert np.all(coarse >= 3.5 * fine), (coarse, fine)


def test_implicit_euler_matches_the_line_to_its_time_error(exact):
    err = flow_error(1001, "implicit_euler", 0.01, exact)
    assert np.all(err <= 2e-2), err
