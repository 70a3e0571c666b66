"""Named theoretical decay bounds t -> bound(t).

Every envelope is an upper bound on ||P_t^* h mu - mu||_TV (or on one of the
auxiliary functionals noted in its docstring), clipped at the maximal total
variation 2.  Its `valid_from`, the first t at which the uncalibrated raw
bound is <= 2, is searched for on first read; only `compare` reads it.
The universal constants the theory leaves unspecified are exposed as explicit
parameters (default 1); `calibrate` rescales an envelope so that it equals a
measured value at t = 0, preserving the rate content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import GammaNotInvertible, MomentMissing
from .inequalities import BetaFunction, beta_orlicz
from ._numerics import invert_increasing, scan_min_log

_XI_S_FLOOR = 1e-16
TV_MAX = 2.0


# ---------------------------------------------------------------------------
# xi: the inf-type inverse of beta(s) log(c/s) <= k t
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class XiSpec:
    """xi(t) = inf{ s > 0 : beta(s) * log(c/s) <= k * t }.

    log_numerator c and t_scale k cover all the paper's clocks: (c=1, k=1)
    for weak Poincare, (c=eps, k=2) for weak log-Sobolev, (c=1, k=4) for
    Hellinger, (c=1, k=1/2) for the weak I_psi and Moser-Trudinger forms.
    """

    beta: BetaFunction
    log_numerator: float = 1.0
    t_scale: float = 1.0

    def __post_init__(self):
        s = np.geomspace(1e-10, min(self.log_numerator, self.beta.s_max) * 0.5, 64)
        vals = self.beta(s) * np.log(self.log_numerator / s)
        if np.any(np.diff(vals) > 1e-6 * np.abs(vals[:-1]) + 1e-300):
            raise ValueError("beta(s) log(c/s) must be non-increasing on (0, c)")


def xi(spec: XiSpec, t: float, return_flag: bool = False):
    """Evaluate xi(t) by bisection; returns the upper bracket end (safe side).

    When even the top of the bracket fails the inequality, the domain max is
    returned with the `unreached` flag set (no exception).
    """
    if t <= 0:
        raise ValueError("xi needs t > 0")
    c, k = spec.log_numerator, spec.t_scale
    s_hi = min(c, 1.0, spec.beta.s_max) - 1e-12
    target = k * t

    def G(s):
        return float(spec.beta(np.asarray(s)) * math.log(c / s))

    if G(s_hi) > target:
        return (s_hi, True) if return_flag else s_hi
    if G(_XI_S_FLOOR) <= target:
        return (_XI_S_FLOOR, False) if return_flag else _XI_S_FLOOR
    a, b = math.log(_XI_S_FLOOR), math.log(s_hi)
    scale = max(1.0, abs(target))
    for _ in range(300):
        m = 0.5 * (a + b)
        gm = G(math.exp(m))
        if abs(gm - target) <= 1e-12 * scale:
            b = m
            break
        if gm > target:
            a = m
        else:
            b = m
        if b - a <= 5e-14:
            break
    val = math.exp(b)  # upper end: larger xi, conservative bound
    return (val, False) if return_flag else val


# ---------------------------------------------------------------------------
# DecayEnvelope
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayEnvelope:
    """A named bound t -> eval(t), non-increasing beyond valid_from."""

    name: str
    params: dict
    raw_eval: Callable[[float], float]
    scale: float = 1.0

    def eval(self, t: float) -> float:
        return min(self.scale * float(self.raw_eval(float(t))), TV_MAX)

    def calibrate(self, measured_at_zero: float) -> "DecayEnvelope":
        """Rescale so the bound equals min(2, measured value) at t = 0."""
        base = self.scale * float(self.raw_eval(0.0))
        target = min(TV_MAX, float(measured_at_zero))
        if base <= 0 or not np.isfinite(base):
            return self
        return replace(self, scale=self.scale * target / base,
                       params={**self.params, "calibrated_to": target})

    @cached_property
    def valid_from(self) -> float:
        """inf{t : raw(t) <= 2} (raw assumed non-increasing), 0 where the
        search fails.  Probed at t = 1e-8 rather than 0 so that envelopes whose
        small-t guard exceeds the maximal TV report a positive valid_from."""
        if self.raw_eval(1e-8) <= TV_MAX:
            return 0.0
        try:
            return float(invert_increasing(lambda t: -self.raw_eval(t), -TV_MAX,
                                           1e-8, 1e4, resid_tol=1e-6))
        except Exception:
            return 0.0


def _exponential(name, params, a, c, b=1.0) -> DecayEnvelope:
    """The bound a e^{-t/c} b, multiplied in that order."""
    return DecayEnvelope(name, params, lambda t: a * math.exp(-t / c) * b)


def _moment_guard(moment):
    if moment is None or not np.isfinite(moment) or moment <= 0:
        raise MomentMissing("int h phi(h) dmu must be a positive finite number")
    return float(moment)


def _truncation(name, params, phi, m, g, arg, lo=1e-6) -> DecayEnvelope:
    """The truncation route TV <= 4m / (phi o g^{-1})(arg(t)) for an
    increasing g(u) = w(u) phi(u); arg(t) is None where the route gives no
    bound (t <= 0 on an xi clock), and eval is then the maximal TV."""

    def ev(t):
        y = arg(t)
        if y is None:
            return TV_MAX
        return 4.0 * m / float(phi(invert_increasing(g, y, lo, 1e6)))

    return DecayEnvelope(name, params, ev)


# ---------------------------------------------------------------------------
# Poincare family
# ---------------------------------------------------------------------------

def envelope_poincare_l2(C_P: float, l2_norm: float) -> DecayEnvelope:
    """TV <= e^{-t/2C_P} ||h - 1||_L2(mu)."""
    if C_P <= 0:
        raise ValueError("C_P must be positive")
    return _exponential("poincare_l2", {"C_P": C_P, "l2_norm": l2_norm},
                        l2_norm, 2.0 * C_P)


def envelope_truncation_poincare(C_P: float, phi: Callable, moment: float) -> DecayEnvelope:
    """Truncation bound 4m / (phi o phitilde^{-1})(2 m e^{t/2C_P}),
    phitilde(u) = sqrt(u) phi(u); `truncation_poincare_k_optimized` is the
    direct infimum over the truncation level K."""
    m = _moment_guard(moment)
    return _truncation("truncation_poincare", {"C_P": C_P, "moment": m}, phi, m,
                       lambda u: math.sqrt(u) * float(phi(u)),
                       lambda t: 2.0 * m * math.exp(t / (2.0 * C_P)))


def _k_infimum(first_term: Callable, phi: Callable, m: float, hi: float) -> float:
    """inf over log K in [log 2, log hi] of first_term(K) + 2m/phi(K)."""
    return scan_min_log(lambda K: first_term(K) + 2.0 * m / float(phi(K)), 2.0, hi,
                        n_scan=200)[1]


def truncation_poincare_k_optimized(C_P: float, phi: Callable, moment: float,
                                    t: float) -> float:
    """The two-term infimum inf_K [ sqrt(K) e^{-t/2C_P} + 2m/phi(K) ] over
    log K in [log 2, 700] (using Var(h ^ K) <= K)."""
    m = _moment_guard(moment)
    decay = math.exp(-t / (2.0 * C_P))
    return _k_infimum(lambda K: math.sqrt(K) * decay, phi, m, math.exp(700.0))


def envelope_weak_poincare(beta_wp: BetaFunction, phi: Callable,
                           moment: float) -> DecayEnvelope:
    """4m / (phi o theta^{-1})(sqrt2 m / sqrt(xi_WP(t))), theta(u) = u phi(u)."""
    m = _moment_guard(moment)
    spec = XiSpec(beta=beta_wp, log_numerator=1.0, t_scale=1.0)
    return _truncation("weak_poincare", {"moment": m, "beta": beta_wp.form}, phi, m,
                       lambda u: u * float(phi(u)),
                       lambda t: None if t <= 0 else
                       math.sqrt(2.0) * m / math.sqrt(xi(spec, t)))


def envelope_orlicz(beta_wp: BetaFunction, phi: Callable, moment: float,
                    C: float = 1.0) -> DecayEnvelope:
    """Orlicz-norm route: C sqrt(xi_zeta(t)) * m with the transformed clock.

    The constant C is unspecified by the theory (default 1; calibrate to pin).
    """
    m = _moment_guard(moment)
    beta_zeta = beta_orlicz(beta_wp, phi)
    spec = XiSpec(beta=beta_zeta, log_numerator=1.0, t_scale=1.0)
    return DecayEnvelope("orlicz", {"moment": m, "C": C}, lambda t: TV_MAX if t <= 0
                         else C * math.sqrt(xi(spec, t)) * m)


# ---------------------------------------------------------------------------
# log-Sobolev family
# ---------------------------------------------------------------------------

def envelope_logsob(C_LS: float, entropy: float) -> DecayEnvelope:
    """TV <= e^{-t/C_LS} sqrt(2 Ent(h))."""
    if C_LS is None or C_LS <= 0:
        raise ValueError("C_LS must be positive")
    return _exponential("logsob", {"C_LS": C_LS, "entropy": entropy},
                        math.sqrt(2.0 * max(entropy, 0.0)), C_LS)


def envelope_truncation_logsob(C_LS: float, phi: Callable, moment: float) -> DecayEnvelope:
    """4m / (phi o phibar^{-1})(m e^{t/C_LS}), phibar(u) = phi(u) sqrt(log+ u);
    `truncation_logsob_k_optimized` is the direct infimum over K."""
    m = _moment_guard(moment)
    # log+ keeps phibar defined where the inversion bracket reaches u < 1
    return _truncation("truncation_logsob", {"C_LS": C_LS, "moment": m}, phi, m,
                       lambda u: float(phi(u)) * math.sqrt(max(math.log(u), 0.0)),
                       lambda t: m * math.exp(t / C_LS), lo=1.2)


def truncation_logsob_k_optimized(C_LS: float, phi: Callable, moment: float,
                                  t: float) -> float:
    """inf over K > 2 of sqrt(2) e^{-t/C_LS} sqrt(log K + 1/e) + 2m/phi(K),
    from Ent(h ^ K) <= log K + 1/e."""
    m = _moment_guard(moment)
    decay = math.exp(-t / C_LS)
    return _k_infimum(
        lambda K: math.sqrt(2.0) * decay * math.sqrt(math.log(K) + 1.0 / math.e),
        phi, m, 1e300)


def envelope_weak_logsob(beta_wls: BetaFunction, phi: Callable, moment: float,
                         eps: float = 1.0 / math.e) -> DecayEnvelope:
    """4m / (phi o phitilde^{-1})(sqrt2 m / ((1/e + eps) sqrt(xi_WLS(eps, t)))),
    phitilde(u) = sqrt(u) phi(u), xi on the 2t clock with numerator eps."""
    m = _moment_guard(moment)
    spec = XiSpec(beta=beta_wls, log_numerator=eps, t_scale=2.0)
    return _truncation("weak_logsob", {"moment": m, "eps": eps}, phi, m,
                       lambda u: math.sqrt(u) * float(phi(u)),
                       lambda t: None if t <= 0 else
                       math.sqrt(2.0) * m / ((1.0 / math.e + eps) * math.sqrt(xi(spec, t))))


def gamma_inverse(beta: BetaFunction) -> Callable[[float], float]:
    """gamma^{-1} for gamma(u) = beta(u)/u, interpolated on a log probe grid of
    (1e-10, s_max] and constant beyond it; raises GammaNotInvertible unless
    gamma strictly decreases on the grid."""
    u_probe = np.geomspace(1e-10, beta.s_max, 3000)
    gamma_vals = beta(u_probe) / u_probe
    if np.any(np.diff(gamma_vals) >= 0):
        raise GammaNotInvertible("beta_WLS(u)/u must be strictly decreasing")
    log_u = np.log(u_probe)
    log_g = np.log(gamma_vals)

    def gamma_inv(v):
        lv = math.log(max(v, 1e-300))
        if lv >= log_g[0]:
            return float(u_probe[0])
        if lv <= log_g[-1]:
            return float(u_probe[-1])
        return float(np.exp(np.interp(-lv, -log_g, log_u)))

    return gamma_inv


def envelope_restricted_logsob(C_P: float, beta_wls: BetaFunction, phi: Callable,
                               moment: float) -> DecayEnvelope:
    """Restricted log-Sobolev route via gamma(u) = beta_WLS(u)/u.

    Branch 1 (phi(u) >= c log u at infinity):
        bound = m / (phi o zeta^{-1})(t),
        zeta(u) = 2 log(phi(u)) gamma^{-1}(sqrt(3 C_P) u).
    Branch 2 (phi(u) << log u):
        bound = (1 + m) / (phi o theta^{-1})(t),
        theta(u) = 2 log(phi(u) log u) gamma^{-1}(sqrt(3 C_P) u).

    The universal constant in front is unspecified by the theory (taken as 1;
    calibrate to pin).  gamma^{-1} is `gamma_inverse(beta_wls)`.
    zeta is inverted on its maximal increasing prefix; past its peak the
    bound continues flat (still a valid non-increasing bound), recorded in
    params["zeta_saturated_at"].
    """
    m = _moment_guard(moment)
    gamma_inv = gamma_inverse(beta_wls)

    # branch selection: phi(u^2)/phi(u) -> 2^beta for phi ~ log^beta, so the
    # doubling ratio separates phi >= c log (>= 2) from phi << log (< 2)
    u_test = 1e6
    doubling = float(phi(u_test**2)) / max(float(phi(u_test)), 1e-300)
    branch = 1 if doubling >= 1.95 else 2

    def zeta(u):
        if branch == 1:
            lead = 2.0 * math.log(max(float(phi(u)), 1e-300))
        else:
            lead = 2.0 * math.log(max(float(phi(u)) * math.log(u), 1e-300))
        return lead * gamma_inv(math.sqrt(3.0 * C_P) * u)

    ug = np.geomspace(3.0, 1e6, 1200)
    zvals = np.array([zeta(u) for u in ug])
    peak = int(np.argmax(zvals))
    ug, zvals = ug[:peak + 1], zvals[:peak + 1]
    on_max = zvals >= np.maximum.accumulate(zvals) - 1e-15
    ug, zvals = ug[on_max], zvals[on_max]
    strict = np.concatenate([[True], np.diff(zvals) > 0])
    ug, zvals = ug[strict], zvals[strict]
    if len(ug) < 8:
        raise GammaNotInvertible("zeta has no usable increasing range")
    z_max = float(zvals[-1])
    prefactor = m if branch == 1 else 1.0 + m

    def ev(t):
        tt = min(t, z_max)
        u = float(np.exp(np.interp(tt, zvals, np.log(ug))))
        return prefactor / max(float(phi(u)), 1e-300)

    return DecayEnvelope("restricted_logsob", {"C_P": C_P, "moment": m, "branch": branch,
                                               "zeta_saturated_at": z_max}, ev)


# ---------------------------------------------------------------------------
# I_psi, Hellinger, curvature
# ---------------------------------------------------------------------------

def envelope_ipsi(C_eta: float, M_eta: float, eta_moment: float) -> DecayEnvelope:
    """TV <= M_eta e^{-t/4C_eta} (1 + int eta(h) dmu)."""
    if C_eta <= 0:
        raise ValueError("C_eta must be positive")
    return _exponential("ipsi", {"C_eta": C_eta, "M_eta": M_eta, "eta_moment": eta_moment},
                        M_eta, 4.0 * C_eta, 1.0 + eta_moment)


def envelope_hellinger(beta_h: BetaFunction, phi: Callable, moment: float) -> DecayEnvelope:
    """TV form 4m / (phi o etatilde^{-1})(2m / sqrt(3 xi_H(t))),
    etatilde(u) = u^{1/4} phi(u); xi_H runs on the 4t clock.  The direct
    Hellinger-distance bound is `hellinger_eval`."""
    m = _moment_guard(moment)
    spec = XiSpec(beta=beta_h, log_numerator=1.0, t_scale=4.0)
    return _truncation("hellinger", {"moment": m}, phi, m,
                       lambda u: u**0.25 * float(phi(u)),
                       lambda t: None if t <= 0 else 2.0 * m / math.sqrt(3.0 * xi(spec, t)))


def hellinger_eval(beta_h: BetaFunction, h_sup: float, t: float) -> float:
    """The direct Hellinger-distance bound min(2, 3 xi_H(t) sqrt(h_sup))."""
    spec = XiSpec(beta=beta_h, log_numerator=1.0, t_scale=4.0)
    return min(TV_MAX, 3.0 * xi(spec, t) * math.sqrt(h_sup))


def theta_inverse_rate(beta_wp: BetaFunction, rho: float, u: float) -> float:
    """theta(u) = inf{ s : beta(s)/s <= 4u/rho } by bisection (beta/s must
    be non-increasing)."""
    target = 4.0 * u / rho

    def g(s):
        return float(beta_wp(np.asarray(s))) / s

    return invert_increasing(lambda s: -g(s), -target, 1e-14,
                             min(0.5, beta_wp.s_max), resid_tol=1e-9)


def envelope_curvature(rho: float, beta_wp: BetaFunction) -> DecayEnvelope:
    """sqrt( inf_s [ rho beta(s) / (e^{rho t} + rho beta(s) - 1) + 4 s ] ).

    rho = 0 degenerates via r(t, s) = log(1 + t/beta(s)) (flagged in params).
    """
    if rho < 0:
        raise ValueError("rho must be non-negative")

    def bracket(t, s):
        b = float(beta_wp(np.asarray(s)))
        if rho == 0.0:
            return b / (b + t) + 4.0 * s
        return rho * b / (math.exp(min(rho * t, 700.0)) + rho * b - 1.0) + 4.0 * s

    def ev(t):
        _, val = scan_min_log(lambda s: bracket(t, s), 1e-12,
                              min(0.5, beta_wp.s_max), n_scan=80)
        return math.sqrt(max(val, 0.0))

    params = {"rho": rho, "beta": beta_wp.form, "rho_zero_limit": rho == 0.0}
    return DecayEnvelope("curvature", params, ev)


def r_curve(rho: float, beta_wp: BetaFunction, t: float, s: float) -> float:
    """r(t, s) = log((e^{rho t} + rho beta(s) - 1)/(rho beta(s))); the rho = 0
    limit is log(1 + t/beta(s))."""
    b = float(beta_wp(np.asarray(s)))
    if rho == 0.0:
        return math.log1p(t / b)
    return math.log1p(math.expm1(rho * t) / (rho * b))
