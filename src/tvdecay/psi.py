"""Admissible eta profiles, the psi profile spliced from one, and its Pinsker constant.

A profile psi is spliced from the quadratic (u^2 - u)/2 below the splice
point a and from eta''(u)/eta''(a) above it:

    psi''(u) = eta''(u)/eta''(a)  for u >= a,   psi''(u) = 1 otherwise,
    psi'(u)  = int_{1/2}^u psi'',   psi(u) = int_1^u psi',

which makes psi(1) = 0 and psi <= 0 on [0, 1] by construction.  The
integrals above a have the closed form

    psi(u) = psi(a) + (a - 1/2)(u - a) + [eta(u) - eta(a) - eta'(a)(u - a)] / eta''(a),

so profiles built from an eta with analytic derivatives are exact.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import BadSplice, InadmissibleEta, NotPinskerAdmissible
from ._numerics import golden_min_log

_PROBE_LO, _PROBE_HI, _PROBE_N = 1e-6, 1e8, 2000

# A spliced psi evaluates eta on the gathered entries of at most this many
# grid values of a block at a time.  Gathered from a whole block, eta's
# temporaries are large enough that glibc hands them back to the system
# after each block and pages them in again: a power1 evolve at n = 1001,
# a save every step, took about 3,400 minor faults that way and about 780
# with this bound, as many as a gaussian one.
_ETA_CHUNK = 2 ** 13


class EtaProfile:
    """An eta that is convex at infinity with eta(u)/u -> infinity.

    The admissibility flags are verified numerically on a log-spaced probe
    grid up to u = 1e8:

    * superlinear: eta(u)/u increasing towards a large value,
    * second_deriv_positive_beyond_b and non-increasing beyond b,
    * eta non-decreasing beyond b.
    """

    def __init__(self, eta: Callable[[np.ndarray], np.ndarray],
                 eta_prime: Callable[[np.ndarray], np.ndarray],
                 eta_second: Callable[[np.ndarray], np.ndarray],
                 b: float = 0.0, name: str = "eta"):
        self.eta, self.eta_prime, self.eta_second = eta, eta_prime, eta_second
        self.b, self.name = b, name

    def admissibility_flags(self) -> dict:
        u = np.geomspace(max(self.b, _PROBE_LO) + 1e-9, _PROBE_HI, _PROBE_N)
        ratio = self.eta(u) / u
        d2 = self.eta_second(u)
        d1 = self.eta_prime(u)
        # superlinear: the ratio eta(u)/u must keep growing through the last
        # decades of the probe (a plateau means eta is at most linear)
        mid = ratio[int(0.75 * len(ratio))]
        superlinear = bool(np.all(np.diff(ratio) > -1e-12 * np.abs(ratio[:-1]))
                           and ratio[-1] >= 1.2 * max(mid, 1e-12))
        return {
            "superlinear": superlinear,
            "second_deriv_positive_beyond_b": bool(np.all(d2 > 0)),
            "nondecreasing_beyond_b": bool(np.all(d1 >= -1e-12)),
            "second_deriv_nonincreasing_beyond_b": bool(
                np.all(np.diff(d2) <= 1e-12 * np.abs(d2[:-1]) + 1e-300)),
        }


# -- standard eta families ------------------------------------------------------

def eta_quadratic() -> EtaProfile:
    """eta(u) = u^2 (the Poincare / variance regime)."""
    return EtaProfile(eta=lambda u: np.asarray(u, float) ** 2,
                      eta_prime=lambda u: 2.0 * np.asarray(u, float),
                      eta_second=lambda u: np.full_like(np.asarray(u, float), 2.0),
                      b=0.0, name="quadratic")


def eta_power(p: float) -> EtaProfile:
    """eta(u) = u^p for 1 < p <= 2 (eta'' must be non-increasing)."""
    if not (1.0 < p <= 2.0):
        raise InadmissibleEta("eta_power needs 1 < p <= 2")
    return EtaProfile(
        eta=lambda u: np.asarray(u, float) ** p,
        eta_prime=lambda u: p * np.asarray(u, float) ** (p - 1.0),
        eta_second=lambda u: p * (p - 1.0) * np.asarray(u, float) ** (p - 2.0),
        b=0.0, name=f"power({p:g})")


def eta_entropy() -> EtaProfile:
    """eta(u) = u log(2 + u), an entropy-type profile (b ~ 0.5)."""
    def e(u):
        u = np.asarray(u, float)
        return u * np.log(2.0 + u)

    def e1(u):
        u = np.asarray(u, float)
        return np.log(2.0 + u) + u / (2.0 + u)

    def e2(u):
        u = np.asarray(u, float)
        return (4.0 + u) / (2.0 + u) ** 2

    return EtaProfile(eta=e, eta_prime=e1, eta_second=e2, b=0.5, name="entropy")


def eta_fsobolev(alpha: float) -> EtaProfile:
    """eta(u) = u log^m(u) exp(log^kappa u), m = 2(1-1/alpha), kappa = 2/alpha - 1.

    Defined for u >= u0 = e^2 with a C^1 quadratic continuation below; this is
    the profile matched to the |x|^alpha potential family for 1 < alpha < 2.
    """
    u0 = math.e**2
    m = 2.0 * (1.0 - 1.0 / alpha)
    kap = 2.0 / alpha - 1.0

    def big_eta(u):
        L = np.log(u)
        return u * L**m * np.exp(L**kap)

    def big_eta1(u):
        L = np.log(u)
        return np.exp(L**kap) * L**(m - 1.0) * (L + m + kap * L**kap)

    def big_eta2(u):
        L = np.log(u)
        P = L**m + m * L**(m - 1.0) + kap * L**(m + kap - 1.0)
        P1 = (m * L**(m - 1.0) + m * (m - 1.0) * L**(m - 2.0)
              + kap * (m + kap - 1.0) * L**(m + kap - 2.0))
        return (1.0 / u) * np.exp(L**kap) * (kap * L**(kap - 1.0) * P + P1)

    d2_0 = float(big_eta2(u0))
    d1_0 = float(big_eta1(u0))
    e_0 = float(big_eta(u0))

    def e(u):
        u = np.asarray(u, float)
        below = e_0 + d1_0 * (u - u0) + 0.5 * d2_0 * (u - u0) ** 2
        return np.where(u >= u0, big_eta(np.maximum(u, u0)), below)

    def e1(u):
        u = np.asarray(u, float)
        below = d1_0 + d2_0 * (u - u0)
        return np.where(u >= u0, big_eta1(np.maximum(u, u0)), below)

    def e2(u):
        u = np.asarray(u, float)
        return np.where(u >= u0, big_eta2(np.maximum(u, u0)), d2_0)

    return EtaProfile(eta=e, eta_prime=e1, eta_second=e2, b=u0,
                      name=f"fsobolev({alpha:g})")


# -- psi profile -----------------------------------------------------------------

class PsiProfile:
    """psi with its first two derivatives, and c_psi on first read.

    psi(1) = 0 exactly; psi''(u) = 1 below the splice point a, so
    psi(u) = (u^2 - u)/2 there; `build_psi_from_eta` splices one that calls
    eta only on the entries at or above a.  c_pinsker = pinsker_constant(self)
    is computed the first time it is read, so the simulation never pays for it.

    Each callable is f(u, out=None, mask=None): it writes f(u) into out, a
    float array of u's shape that is not u (a new one if None), and may use
    mask, a bool array of u's shape, as scratch; it returns out.  The
    result is the same bits with or without them.  `functionals` passes its
    workspace's scratch, so below a a block's psi allocates nothing.
    """

    def __init__(self, a: float, psi: Callable[[np.ndarray], np.ndarray],
                 psi_prime: Callable[[np.ndarray], np.ndarray],
                 psi_second: Callable[[np.ndarray], np.ndarray], name: str = "psi"):
        self.a, self.psi, self.psi_prime, self.psi_second = a, psi, psi_prime, psi_second
        self.name = name

    @cached_property
    def c_pinsker(self) -> float:
        return pinsker_constant(self)


def splice_point(eta: EtaProfile, a: Optional[float] = None) -> float:
    """The splice point a, or by default max(2.1, b + 0.1)."""
    return max(2.1, eta.b + 0.1) if a is None else a


def build_psi_from_eta(eta: EtaProfile, a: Optional[float] = None) -> PsiProfile:
    """Splice psi from eta at a > max(2, b); default a = splice_point(eta)."""
    flags = eta.admissibility_flags()
    if not all(flags.values()):
        bad = [k for k, v in flags.items() if not v]
        raise InadmissibleEta(f"eta {eta.name!r} fails flags: {bad}")
    a = splice_point(eta, a)
    if a <= max(2.0, eta.b):
        raise BadSplice(f"a = {a:g} must exceed max(2, b) = {max(2.0, eta.b):g}")
    a = float(a)
    d2a = float(eta.eta_second(a))
    d1a = float(eta.eta_prime(a))
    ea = float(eta.eta(a))
    psi_a = 0.5 * (a * a - a)

    def spliced(below, above):
        """u -> below(u, out), with above(u) where u >= a: only those
        entries reach eta, gathered into new arrays, a few rows of a block
        at a time (see _ETA_CHUNK)."""
        def f(u, out=None, mask=None):
            u = np.asarray(u, float)
            if out is None:
                out = np.empty(u.shape)
            hi = np.greater_equal(u, a, out=mask)
            below(u, out)
            parts = [...]
            if u.ndim == 2 and u.size:
                step = max(1, _ETA_CHUNK // u.shape[1])
                parts = [slice(k, k + step) for k in range(0, len(u), step)]
            for part in parts:
                rows, rows_hi = out[part], hi[part]
                rows[rows_hi] = above(u[part][rows_hi])
            return out
        return f

    psi_second = spliced(lambda u, out: out.fill(1.0), lambda u: eta.eta_second(u) / d2a)
    psi_prime = spliced(lambda u, out: np.subtract(u, 0.5, out=out),
                        lambda u: (a - 0.5) + (eta.eta_prime(u) - d1a) / d2a)
    # 0.5 * (u * u - u), in place
    psi = spliced(lambda u, out: np.multiply(
                      0.5, np.subtract(np.multiply(u, u, out=out), u, out=out), out=out),
                  lambda u: (psi_a + (a - 0.5) * (u - a)
                             + (eta.eta(u) - ea - d1a * (u - a)) / d2a))

    return PsiProfile(a=a, psi=psi, psi_prime=psi_prime, psi_second=psi_second,
                      name=f"psi[{eta.name}]")


# -- Pinsker constant ------------------------------------------------------------

def pinsker_constant(psi: PsiProfile) -> float:
    """c_psi = sqrt(2c), c the sup of (u-1)^2 / [(1+u)(psi(u) - psi'(1)(u-1))].

    The sup is taken over a log-spaced probe grid on [0, 1e8], the ratio
    evaluated over the whole grid with one call to psi, with the analytic
    limit 1/psi''(1) at u = 1 and a liminf-based tail limit; local golden
    refinement around the grid argmax makes the sup effectively exact.
    """
    p1 = float(psi.psi_prime(1.0))
    at_one = 1.0 / float(psi.psi_second(1.0))

    def ratio(u):
        """The ratio over an array of u: +inf where its denominator is <= 0."""
        den = (1.0 + u) * (psi.psi(u) - p1 * (u - 1.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            val = np.where(den <= 0, np.inf, (u - 1.0) ** 2 / den)
        return np.where(np.abs(u - 1.0) < 1e-7, at_one, val)

    us = np.sort(np.concatenate([[0.0], np.geomspace(1e-8, _PROBE_HI, _PROBE_N), [1.0]]))
    vals = ratio(us)
    if not np.all(np.isfinite(vals[us < 1e6])):
        raise NotPinskerAdmissible("Pinsker ratio is not finite on the probe grid")
    # tail admissibility: either superlinear or liminf (psi(u)/u - psi'(1)) > 0
    tail_u = np.geomspace(1e6, _PROBE_HI, 50)
    drift = np.asarray(psi.psi(tail_u), float) / tail_u - p1
    if drift[-1] <= 0:
        raise NotPinskerAdmissible(
            "psi(u)/u - psi'(1) is not positive at infinity; sup would diverge")
    tail_limit = 1.0 / float(drift[-1])
    i = int(np.argmax(vals))
    c = float(vals[i])
    lo_b = us[i - 1] if i >= 1 and us[i - 1] > 0 else 1e-10
    hi_b = us[i + 1] if i + 1 < len(us) else _PROBE_HI
    if hi_b > lo_b:
        c = max(c, -float(golden_min_log(lambda u: -ratio(u), np.array([lo_b]),
                                         np.array([hi_b]))[0]))
    c = max(c, tail_limit)
    if not np.isfinite(c):
        raise NotPinskerAdmissible("Pinsker ratio sup diverges")
    return math.sqrt(2.0 * c * (1.0 + 1e-9))
