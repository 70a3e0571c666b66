"""Named theoretical decay bounds t -> bound(t).

Every envelope is an upper bound on ||P_t^* h mu - mu||_TV (or on one of the
auxiliary functionals noted in its docstring), clipped at the maximal total
variation 2.  `eval` and `raw_eval` take a whole array of t and evaluate the
bound over it in one pass (`raw_eval` returns an array, `eval` a list of
floats): the xi inversion, the truncation-route inversion and the curvature
infimum over s run elementwise under masks, and a scalar t gives a float.
Every exp and log is numpy's, which runs the same loop on one entry as on
many, so an array evaluation is bit-identical to evaluating the bound one t
at a time.  Only `_exp`, in the truncation_poincare and truncation_logsob
arguments, raises (OverflowError, where math.exp would); every other exp
and log argument is in range by construction.  `verdict` builds compare's
record of each bound against the measured TV.
The universal constants the theory leaves unspecified are exposed as explicit
parameters (default 1); `calibrate` rescales an envelope so that it equals a
measured value at t = 0, preserving the rate content.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import BadExponent, GammaNotInvertible, MomentMissing
from .inequalities import BetaFunction, beta_orlicz
from ._numerics import fit_log_slope, invert_increasing, scan_min_log

TV_MAX = 2.0
# The curvature scan takes 80 s values per t, in blocks of t values sized to
# about 2^17 scan values (1 MB per block temporary) whatever the t array.
_CURVATURE_SCAN = 80
_CURVATURE_BLOCK = 2 ** 17 // _CURVATURE_SCAN


@np.errstate(over="raise", under="ignore")
def _exp(x):
    """np.exp, raising OverflowError where math.exp does: an overflow at
    the valid_from search's t = 1e4 probe must fail that search."""
    try:
        return np.exp(x)
    except FloatingPointError as err:
        raise OverflowError(err) from None


# ---------------------------------------------------------------------------
# xi: the inf-type inverse of beta(s) log(c/s) <= k t
# ---------------------------------------------------------------------------

class XiSpec:
    """xi(t) = inf{ s > 0 : beta(s) * log(c/s) <= k * t }.

    log_numerator c and t_scale k cover all the paper's clocks: (c=1, k=1)
    for weak Poincare, (c=eps, k=2) for weak log-Sobolev, (c=1, k=4) for
    Hellinger, (c=1, k=1/2) for the weak I_psi and Moser-Trudinger forms.
    BadExponent when xi's bracket top min(c, 1, s_max) - 1e-12 is not positive,
    or when beta(s) log(c/s) rises on a forward probe to min(c, s_max)/2.
    """

    def __init__(self, beta: BetaFunction, log_numerator: float = 1.0, t_scale: float = 1.0):
        self.beta, self.log_numerator, self.t_scale = beta, log_numerator, t_scale
        c, m = log_numerator, min(log_numerator, beta.s_max)
        clock = f"xi clock (beta {beta.form}, c = {c:g}, k = {t_scale:g})"
        if min(m, 1.0) - 1e-12 <= 0:
            raise BadExponent(f"{clock}: min(c, 1, s_max) - 1e-12 must be positive")
        s = np.geomspace(1e-10 if m > 2e-10 else m * 1e-6, m * 0.5, 64)
        vals = beta(s) * np.log(c / s)
        if np.any(np.diff(vals) > 1e-6 * np.abs(vals[:-1]) + 1e-300):
            raise BadExponent(f"{clock}: beta(s) log(c/s) must be non-increasing")


def xi(spec: XiSpec, t, return_flag: bool = False):
    """Evaluate xi(t) elementwise over an array of t (a float for a scalar t)
    as c e^{-v}, where v = log(c/s) solves H(v) = beta(c e^{-v}) v = k t, H
    increasing, by `invert_increasing` from v = log(c/s_hi), s_hi = min(c, 1,
    s_max) - 1e-12: to a residual |H(v) - k t| <= 1e-12 k t, or to a bracket
    1e-13 wide in log v.  Past v = 745, xi underflows to 0.

    Where even s_hi fails the inequality, s_hi is returned with the
    `unreached` flag set (no exception).
    """
    ts = np.asarray(t, dtype=float)
    if np.any(ts <= 0):
        raise ValueError("xi needs t > 0")
    c, k = spec.log_numerator, spec.t_scale
    s_hi = min(c, 1.0, spec.beta.s_max) - 1e-12
    v_lo = math.log(c / s_hi)
    target = k * ts.reshape(-1)

    @np.errstate(divide="ignore", over="ignore")
    def H(v):   # beta may overflow to inf where c e^{-v} is tiny or 0
        return spec.beta(c * np.exp(-v)) * v

    unreached = H(np.array([v_lo])) > target
    val = np.full(target.shape, s_hi)
    i = np.flatnonzero(~unreached)
    val[i] = c * np.exp(-invert_increasing(H, target[i], v_lo, 2.0 * v_lo + 1.0,
                                           resid_tol=1e-12))
    if ts.ndim == 0:
        val, unreached = float(val[0]), bool(unreached[0])
    else:
        val, unreached = val.reshape(ts.shape), unreached.reshape(ts.shape)
    return (val, unreached) if return_flag else val


# ---------------------------------------------------------------------------
# DecayEnvelope
# ---------------------------------------------------------------------------

class DecayEnvelope:
    """A named bound t -> eval(t), non-increasing beyond valid_from.  `bound`
    maps a 1-D array of t to the raw (unscaled, unclipped) bound at each."""

    def __init__(self, name: str, params: dict, bound: Callable[[np.ndarray], np.ndarray],
                 scale: float = 1.0):
        self.name, self.params, self.bound, self.scale = name, params, bound, scale

    def raw_eval(self, t):
        """The raw bound: an array for an array of t, a float for a scalar t."""
        ts = np.asarray(t, dtype=float)
        out = self.bound(ts.reshape(-1)).reshape(ts.shape)
        return float(out) if out.ndim == 0 else out

    def eval(self, t):
        """min(scale * raw bound, 2): a float for a scalar t, and for an array
        of t a list of floats, plain numbers like `params`, so that counts
        taken from them (how many are below 2) are plain ints too."""
        out = np.minimum(self.scale * self.raw_eval(t), TV_MAX)
        return float(out) if out.ndim == 0 else out.tolist()

    def calibrate(self, measured_at_zero: float) -> "DecayEnvelope":
        """Rescale so the bound equals min(2, measured value) at t = 0."""
        base = self.scale * float(self.raw_eval(0.0))
        target = min(TV_MAX, float(measured_at_zero))
        if base <= 0 or not np.isfinite(base):
            return self
        return DecayEnvelope(self.name, {**self.params, "calibrated_to": target},
                             self.bound, self.scale * target / base)


def _valid_from(env: DecayEnvelope) -> float:
    """inf{t : raw(t) <= 2} of a non-increasing raw bound, 0 where the search overflows;
    probed at t = 1e-8, not 0, so that a small-t guard above the maximal TV shows."""
    if env.raw_eval(1e-8) <= TV_MAX:
        return 0.0
    try:
        return float(invert_increasing(lambda t: -env.raw_eval(t), [-TV_MAX],
                                       1e-8, 1e4, resid_tol=1e-6)[0])
    except OverflowError:
        return 0.0


def verdict(times, tv, curves: dict, envelopes: dict) -> dict:
    """compare's record of each bound curve against the TV, and the TV's own slope."""
    half = times >= 0.5 * times[-1]
    half[-2:] = True    # two unknowns need at least two saves

    def slope(y):   # the log-slope over t >= t_end/2, y floored at 1e-300
        return fit_log_slope(times[half], np.maximum(y[half], 1e-300))

    return {"envelopes": {name: {
        "domination_fraction": float(np.mean(bound >= tv - 1e-12)),
        "fitted_slope": slope(bound),
        "valid_from": _valid_from(envelopes[name]),
        "calibration_scale": envelopes[name].scale,
    } for name, bound in curves.items()}, "tv_fitted_slope": slope(tv)}


def _exponential(name, params, a, c, b=1.0) -> DecayEnvelope:
    """The bound a e^{-t/c} b, multiplied in that order."""
    return DecayEnvelope(name, params, lambda t: a * np.exp(-t / c) * b)


def _moment_guard(moment):
    if moment is None or not np.isfinite(moment) or moment <= 0:
        raise MomentMissing("int h phi(h) dmu must be a positive finite number")
    return float(moment)


def _truncation(phi, m, g, arg, lo=1e-6):
    """The truncation route t -> 4m / (phi o g^{-1})(arg(t)) for an increasing
    g(u) = w(u) phi(u), inverted elementwise over the t array."""
    return lambda t: 4.0 * m / phi(invert_increasing(g, arg(t), lo, 1e6))


def _from_t0(route):
    """An xi clock starts at t = 0+: the route where t > 0, the maximal TV
    elsewhere.  Where the clock has underflowed to 0, a truncation route's
    argument is +inf and its inversion returns the top of its grown bracket,
    so numpy's divide, overflow and inf - inf warnings are silenced."""

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")
    def bound(t):
        out = np.full(t.shape, TV_MAX)
        pos = t > 0
        if pos.any():
            out[pos] = route(t[pos])
        return out

    return bound


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
    phitilde(u) = sqrt(u) phi(u): the level K that balances the two terms of
    sqrt(K) e^{-t/2C_P} + 2m/phi(K) (using Var(h ^ K) <= K)."""
    m = _moment_guard(moment)
    return DecayEnvelope("truncation_poincare", {"C_P": C_P, "moment": m}, _truncation(
        phi, m, lambda u: np.sqrt(u) * phi(u),
        lambda t: 2.0 * m * _exp(t / (2.0 * C_P))))


def _k_infimum(first_term: Callable, phi: Callable, m: float, hi: float) -> float:
    """inf over log K in [log 2, log hi] of first_term(K) + 2m/phi(K)."""
    return float(scan_min_log(lambda K: first_term(K) + 2.0 * m / phi(K), 2.0, hi,
                              n_scan=200))


def envelope_weak_poincare(beta_wp: BetaFunction, phi: Callable,
                           moment: float) -> DecayEnvelope:
    """4m / (phi o theta^{-1})(sqrt2 m / sqrt(xi_WP(t))), theta(u) = u phi(u)."""
    m = _moment_guard(moment)
    spec = XiSpec(beta=beta_wp, log_numerator=1.0, t_scale=1.0)
    return DecayEnvelope("weak_poincare", {"moment": m, "beta": beta_wp.form},
                         _from_t0(_truncation(
                             phi, m, lambda u: u * phi(u),
                             lambda t: math.sqrt(2.0) * m / np.sqrt(xi(spec, t)))))


def envelope_orlicz(beta_wp: BetaFunction, phi: Callable, moment: float,
                    C: float = 1.0) -> DecayEnvelope:
    """Orlicz-norm route: C sqrt(xi_zeta(t)) * m with the transformed clock.

    The constant C is unspecified by the theory (default 1; calibrate to pin).
    """
    m = _moment_guard(moment)
    beta_zeta = beta_orlicz(beta_wp, phi)
    spec = XiSpec(beta=beta_zeta, log_numerator=1.0, t_scale=1.0)
    return DecayEnvelope("orlicz", {"moment": m, "C": C},
                         _from_t0(lambda t: C * np.sqrt(xi(spec, t)) * m))


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
    return DecayEnvelope("truncation_logsob", {"C_LS": C_LS, "moment": m}, _truncation(
        phi, m, lambda u: phi(u) * np.sqrt(np.maximum(np.log(u), 0.0)),
        lambda t: m * _exp(t / C_LS), lo=1.2))


def truncation_logsob_k_optimized(C_LS: float, phi: Callable, moment: float,
                                  t: float) -> float:
    """inf over K > 2 of sqrt(2) e^{-t/C_LS} sqrt(log K + 1/e) + 2m/phi(K),
    from Ent(h ^ K) <= log K + 1/e."""
    m = _moment_guard(moment)
    decay = math.exp(-t / C_LS)
    return _k_infimum(
        lambda K: math.sqrt(2.0) * decay * np.sqrt(np.log(K) + 1.0 / math.e),
        phi, m, 1e300)


def envelope_weak_logsob(beta_wls: BetaFunction, phi: Callable, moment: float,
                         eps: float = 1.0 / math.e) -> DecayEnvelope:
    """4m / (phi o phitilde^{-1})(sqrt2 m / ((1/e + eps) sqrt(xi_WLS(eps, t)))),
    phitilde(u) = sqrt(u) phi(u), xi on the 2t clock with numerator eps."""
    m = _moment_guard(moment)
    spec = XiSpec(beta=beta_wls, log_numerator=eps, t_scale=2.0)
    return DecayEnvelope("weak_logsob", {"moment": m, "eps": eps}, _from_t0(_truncation(
        phi, m, lambda u: np.sqrt(u) * phi(u),
        lambda t: math.sqrt(2.0) * m / ((1.0 / math.e + eps) * np.sqrt(xi(spec, t))))))


def gamma_inverse(beta: BetaFunction) -> Callable:
    """gamma^{-1} for gamma(u) = beta(u)/u, interpolated on a log probe grid of
    (1e-10, s_max] and constant beyond it, elementwise over an array (a float
    for a scalar); raises GammaNotInvertible unless gamma strictly decreases
    on the grid."""
    u_probe = np.geomspace(1e-10, beta.s_max, 3000)
    gamma_vals = beta(u_probe) / u_probe
    if np.any(np.diff(gamma_vals) >= 0):
        raise GammaNotInvertible("beta_WLS(u)/u must be strictly decreasing")
    log_u = np.log(u_probe)
    log_g = np.log(gamma_vals)

    def gamma_inv(v):
        lv = np.log(np.maximum(v, 1e-300))
        u = np.where(lv >= log_g[0], u_probe[0], np.where(
            lv <= log_g[-1], u_probe[-1], np.exp(np.interp(-lv, -log_g, log_u))))
        return float(u) if u.ndim == 0 else u

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
    zeta is inverted on its strict running records up to its peak; past it
    the bound continues flat (still a valid non-increasing bound), recorded in
    params["zeta_saturated_at"].
    """
    m = _moment_guard(moment)
    gamma_inv = gamma_inverse(beta_wls)

    # branch selection: phi(u^2)/phi(u) -> 2^beta for phi ~ log^beta, so the
    # doubling ratio separates phi >= c log (>= 2) from phi << log (< 2)
    u_test = 1e6
    doubling = float(phi(u_test**2)) / max(float(phi(u_test)), 1e-300)
    branch = 1 if doubling >= 1.95 else 2

    ug = np.geomspace(3.0, 1e6, 1200)
    phis = phi(ug) if branch == 1 else phi(ug) * np.log(ug)
    zvals = 2.0 * np.log(np.maximum(phis, 1e-300)) * gamma_inv(
        math.sqrt(3.0 * C_P) * ug)
    # zeta's strict running records: increasing, and ending at its peak
    record = zvals > np.concatenate([[-np.inf], np.maximum.accumulate(zvals)[:-1]])
    ug, zvals = ug[record], zvals[record]
    if len(ug) < 8:
        raise GammaNotInvertible("zeta has no usable increasing range")
    z_max = float(zvals[-1])
    prefactor = m if branch == 1 else 1.0 + m

    log_ug = np.log(ug)

    def bound(t):
        u = np.exp(np.interp(np.minimum(t, z_max), zvals, log_ug))
        return prefactor / np.maximum(phi(u), 1e-300)

    return DecayEnvelope("restricted_logsob", {"C_P": C_P, "moment": m, "branch": branch,
                                               "zeta_saturated_at": z_max}, bound)


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
    return DecayEnvelope("hellinger", {"moment": m}, _from_t0(_truncation(
        phi, m, lambda u: u ** 0.25 * phi(u),
        lambda t: 2.0 * m / np.sqrt(3.0 * xi(spec, t)))))


def hellinger_eval(beta_h: BetaFunction, h_sup: float, t: float) -> float:
    """The direct Hellinger-distance bound min(2, 3 xi_H(t) sqrt(h_sup))."""
    spec = XiSpec(beta=beta_h, log_numerator=1.0, t_scale=4.0)
    return min(TV_MAX, 3.0 * xi(spec, t) * math.sqrt(h_sup))


def envelope_curvature(rho: float, beta_wp: BetaFunction) -> DecayEnvelope:
    """sqrt( inf_s [ rho beta(s) / (e^{rho t} + rho beta(s) - 1) + 4 s ] ).

    rho = 0 degenerates via r(t, s) = log(1 + t/beta(s)) (flagged in params).
    """
    if rho < 0:
        raise ValueError("rho must be non-negative")

    def infimum(t):
        """inf over s of the bracket for a block of t, one scan row per t."""
        t = t[:, None]
        growth = np.exp(np.minimum(rho * t, 700.0))

        def bracket(s):
            b = beta_wp(s)
            if rho == 0.0:
                return b / (b + t) + 4.0 * s
            return rho * b / (growth + rho * b - 1.0) + 4.0 * s

        return scan_min_log(bracket, 1e-12, min(0.5, beta_wp.s_max), n_scan=_CURVATURE_SCAN)

    def bound(t):
        val = np.empty(t.shape)
        for k in range(0, t.size, _CURVATURE_BLOCK):
            val[k:k + _CURVATURE_BLOCK] = infimum(t[k:k + _CURVATURE_BLOCK])
        return np.sqrt(np.maximum(val, 0.0))

    params = {"rho": rho, "beta": beta_wp.form, "rho_zero_limit": rho == 0.0}
    return DecayEnvelope("curvature", params, bound)

