"""Inequality constants and beta functions from explicit 1-D criteria.

All Poincare-type brackets follow the convention Var_mu(f) <= C_P int |f'|^2 dmu
and the log-Sobolev convention Ent_mu(f^2) <= C_LS int |f'|^2 dmu, matching the
measure module's generator L = (1/2) d^2 - V' d with Gamma(f) = |f'|^2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    AsymmetricInput,
    BadExponent,
    DivergentCcap,
    DivergentSup,
    MissingPoincare,
    NonYoungWarning,
    VanishingDensity,
)
from .measures import ProbabilityMeasure1D, integrate
from ._numerics import cumtrapz0, fit_loglog_slope, scan_sup

# constant (sqrt2 - 1)/(2 sqrt2) from the Hellinger capacity bound
HELLINGER_CAP_CONST = (math.sqrt(2.0) - 1.0) / (2.0 * math.sqrt(2.0))


# ---------------------------------------------------------------------------
# BetaFunction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BetaFunction:
    """A positive, non-increasing rate function beta(s) on (s_min, s_max].

    Forms: power  beta(s) = c * s^(-q)
           logpower  beta(s) = d * log(s0/s)^r   (domain s < s0)
           constant  beta(s) = c
           tabulated  log-log interpolation of sampled values, monotonized by
           a running maximum from the right (the violation count is kept).
           affine  scale * base(s) + offset
    Each constructor binds `evaluate` (float array -> beta values); `form`
    and `params` are plain data describing it.
    """

    form: str
    params: dict
    evaluate: Callable[[np.ndarray], np.ndarray] = field(compare=False, repr=False)
    s_min: float = 0.0
    s_max: float = 1.0
    monotonicity_violations: int = 0

    @staticmethod
    def power(c: float, q: float, s_max: float = 1.0) -> "BetaFunction":
        if c <= 0 or q < 0:
            raise BadExponent("power beta needs c > 0 and q >= 0")
        c, q = float(c), float(q)
        return BetaFunction("power", {"c": c, "q": q}, lambda s: c * s ** (-q),
                            s_max=s_max)

    @staticmethod
    def logpower(d: float, r: float, s0: float = 2.0) -> "BetaFunction":
        if d <= 0 or r < 0 or s0 <= 0:
            raise BadExponent("logpower beta needs d > 0, r >= 0, s0 > 0")
        d, r, s0 = float(d), float(r), float(s0)
        s_max = s0 * (1.0 - 1e-12)
        return BetaFunction("logpower", {"d": d, "r": r, "s0": s0},
                            lambda s: d * np.log(s0 / np.minimum(s, s_max)) ** r,
                            s_max=s_max)

    @staticmethod
    def constant(c: float, s_max: float = 1.0) -> "BetaFunction":
        if c <= 0:
            raise BadExponent("constant beta must be positive")
        c = float(c)
        return BetaFunction("constant", {"c": c}, lambda s: np.full_like(s, c),
                            s_max=s_max)

    @staticmethod
    def tabulated(s, beta) -> "BetaFunction":
        s = np.asarray(s, dtype=float)
        b = np.asarray(beta, dtype=float)
        if not np.all(np.isfinite(b)):
            raise BadExponent("tabulated beta has non-finite values; shrink the s domain")
        if np.any(b <= 0) or np.any(s <= 0) or not np.all(np.diff(s) > 0):
            raise BadExponent("tabulated beta needs positive values on an increasing s grid")
        mono = np.maximum.accumulate(b[::-1])[::-1]
        violations = int(np.sum(b < mono - 1e-12 * mono))
        log_s, log_beta = np.log(s), np.log(mono)

        def evaluate(s):
            ls = np.log(np.clip(s, 1e-300, None))
            lo, hi = log_s[0], log_s[-1]
            out = np.exp(np.interp(np.clip(ls, lo, hi), log_s, log_beta))
            # extrapolate left with the first log-log slope (conservative:
            # beta keeps growing as s -> 0), constant to the right
            below = ls < lo
            if np.any(below):
                slope = min((log_beta[1] - log_beta[0]) / (log_s[1] - lo), 0.0)
                expo = np.minimum(log_beta[0] + slope * (ls - lo), 700.0)
                out = np.where(below, np.exp(expo), out)
            return out
        return BetaFunction("tabulated", {"s": s, "beta": mono}, evaluate,
                            s_min=float(s[0]), s_max=float(s[-1]),
                            monotonicity_violations=violations)

    @staticmethod
    def from_callable(fn, s_min: float = 1e-12, s_max: float = 1.0,
                      n: int = 2000) -> "BetaFunction":
        s = np.geomspace(s_min, s_max, n)
        return BetaFunction.tabulated(s, np.asarray(fn(s), dtype=float))

    @staticmethod
    def affine(base: "BetaFunction", scale: float, offset: float) -> "BetaFunction":
        """scale * beta(s) + offset; stays positive and non-increasing."""
        scale, offset = float(scale), float(offset)
        return BetaFunction("affine", {"base": base.form, "scale": scale, "offset": offset},
                            lambda s: scale * base(s) + offset,
                            s_min=base.s_min, s_max=base.s_max)

    def __call__(self, s):
        return self.evaluate(np.asarray(s, dtype=float))


@dataclass(frozen=True)
class PropagatedBetaFamily:
    """Two-argument family beta(t, s) = (1 - e^{-rho t})/rho + e^{-rho t} beta(s).

    rho = 0 degenerates to t + beta(s) (the stated limit).
    """

    rho: float
    base: BetaFunction

    def at_time(self, t: float) -> BetaFunction:
        if self.rho == 0.0:
            return BetaFunction.affine(self.base, 1.0, float(t))
        decay = math.exp(-self.rho * t)
        return BetaFunction.affine(self.base, decay, (1.0 - decay) / self.rho)

    def __call__(self, t, s):
        return self.at_time(float(t))(s)


# ---------------------------------------------------------------------------
# Muckenhoupt-type Poincare bracket
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoincareBracket:
    B_plus: float
    B_minus: float
    B: float
    C_P_interval: tuple
    argmax_plus: float
    argmax_minus: float


def _tail_and_hardy(mu: ProbabilityMeasure1D):
    """Right/left tail masses and int_m^x (1/pdf) from the median outward."""
    x = mu.grid
    w = np.diff(x)
    pdf = mu.pdf
    m_idx = int(np.searchsorted(x, mu.median))
    m_idx = min(max(m_idx, 1), len(x) - 2)
    # right tail mu([x_i, inf)) by reversed cumulative trapezoid
    right_tail = np.concatenate([
        (cumtrapz0(pdf[::-1], -x[::-1] + x[-1]))[::-1]])
    left_tail = cumtrapz0(pdf, x)
    inv = 1.0 / np.maximum(pdf, 1e-300)
    hardy_right = cumtrapz0(inv[m_idx:], x[m_idx:])
    hardy_left = cumtrapz0(inv[:m_idx + 1][::-1], (x[m_idx] - x[:m_idx + 1])[::-1])[::-1]
    return m_idx, right_tail, left_tail, hardy_right, hardy_left


def _bulk_check(mu: ProbabilityMeasure1D):
    core = (mu.cdf > 1e-4) & (mu.cdf < 1.0 - 1e-4)
    if np.any(mu.pdf[core] < 1e-290):
        raise VanishingDensity("pdf underflows inside the bulk of mu")


def muckenhoupt_poincare(mu: ProbabilityMeasure1D,
                         F: Optional[Callable] = None) -> PoincareBracket:
    """Two-sided Muckenhoupt sup; C_P lies in [B, 4B] with B = max(B+, B-).

    With F given, the sups are the F-weighted tail criteria
    sup mu([x,inf)) F(1/mu([x,inf))) int_m^x (1/pdf); F = None means F == 1
    (the classical Poincare bracket).
    """
    _bulk_check(mu)
    m_idx, right_tail, left_tail, hardy_right, hardy_left = _tail_and_hardy(mu)
    x = mu.grid

    def weighted(tail):
        if F is None:
            return tail
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            w = tail * np.asarray(F(1.0 / np.maximum(tail, 1e-300)), dtype=float)
        return np.where(tail > 0, w, 0.0)

    prod_r = weighted(right_tail[m_idx:]) * hardy_right
    prod_l = weighted(left_tail[:m_idx + 1]) * hardy_left
    B_plus, xr = scan_sup(x[m_idx:], prod_r)
    B_minus, xl = scan_sup(x[:m_idx + 1], prod_l)
    B = max(B_plus, B_minus)
    if not np.isfinite(B) or B <= 0:
        raise MissingPoincare("Muckenhoupt sup is not finite and positive")
    return PoincareBracket(B_plus=float(B_plus), B_minus=float(B_minus), B=float(B),
                           C_P_interval=(float(B), float(4.0 * B)),
                           argmax_plus=float(xr), argmax_minus=float(xl))


def rayleigh_quotient_scan(mu: ProbabilityMeasure1D, n_trials: int = 50,
                           seed: int = 0) -> float:
    """max Var(f)/Dirichlet(f) over random piecewise-linear trials plus f = x.

    Every trial certifies C_P >= Var/int|f'|^2; the best one is returned.
    """
    rng = np.random.default_rng(seed)
    x = mu.grid
    best = 0.0
    trials = [x.copy()]
    for _ in range(n_trials - 1):
        k = rng.integers(2, 6)
        knots = np.sort(rng.uniform(x[0], x[-1], size=k))
        vals = rng.normal(size=k)
        trials.append(np.interp(x, knots, vals))
    for f in trials:
        mean = integrate(mu, f)
        var = integrate(mu, (f - mean) ** 2)
        fp = np.gradient(f, x)
        dir_energy = integrate(mu, fp * fp)
        if dir_energy > 1e-14 and var > 0:
            best = max(best, var / dir_energy)
    return float(best)


# ---------------------------------------------------------------------------
# Weak Poincare from tails (symmetric nu, Lebesgue density g)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailBetaResult:
    b: float
    B: float
    accepted: bool
    C_range: tuple
    beta_wp: Optional[BetaFunction]


def weak_poincare_beta_from_tails(mu: ProbabilityMeasure1D, g,
                                  beta_family: BetaFunction) -> TailBetaResult:
    """Tail criterion for a weak Poincare inequality of nu(dx) = g dx.

    b = sup_{x>0} nu([x,inf))/beta(nu([x,inf))/4) * int_0^x (1/g)
    B = sup_{x>0} nu([x,inf))/beta(nu([x,inf)))  * int_0^x (1/g)

    The criterion is stated for symmetric g only; nu then satisfies a weak
    Poincare inequality with beta_WP = C * beta for (1/4) b <= C <= 12 B.
    A sup that keeps growing along the last decade of the grid (log-log
    slope > 0.05) is reported as DivergentSup.
    """
    x = mu.grid
    g = np.asarray(g, dtype=float)
    if g.shape != x.shape:
        raise AsymmetricInput("g must be sampled on the measure grid")
    sym = np.interp(-x, x, g)
    if np.max(np.abs(sym - g)) > 1e-8 * max(g.max(), 1e-300):
        raise AsymmetricInput("the tail criterion requires a symmetric density g")
    pos = x > 0
    xp = x[pos]
    tail = cumtrapz0(g[::-1], -x[::-1] + x[-1])[::-1][pos]
    # extend the tail beyond the truncated grid with a power-law fit of g,
    # otherwise the grid-end collapse of nu([x, inf)) masks the asymptotics
    fit_win = xp >= xp[-1] / 10.0
    alpha = -fit_loglog_slope(xp[fit_win], np.maximum(g[pos][fit_win], 1e-300))
    supplement = 0.0
    if alpha > 1.05:
        supplement = float(g[pos][-1] * xp[-1] / (alpha - 1.0))
    tail = tail + supplement
    inv_int_full = cumtrapz0(np.where(np.abs(x) > 0, 1.0 / np.maximum(g, 1e-300),
                                      1.0 / max(g[np.argmin(np.abs(x))], 1e-300)), x)
    zero_idx = int(np.argmin(np.abs(x)))
    inv_int = (inv_int_full - inv_int_full[zero_idx])[pos]
    with np.errstate(divide="ignore", over="ignore"):
        prod_b = tail / beta_family(np.maximum(tail, 1e-300) / 4.0) * inv_int
        prod_B = tail / beta_family(np.maximum(tail, 1e-300)) * inv_int
    keep = np.isfinite(prod_b) & np.isfinite(prod_B) & (tail > 1e-250)
    xp, prod_b, prod_B = xp[keep], prod_b[keep], prod_B[keep]
    if len(xp) < 16:
        raise DivergentSup("too few usable points for the tail sups")
    # divergence along increasing truncations: the running sup of the
    # criterion product must saturate; a persistent log-log growth over the
    # last decade means the true sup over the line is infinite
    window = xp >= xp[-1] / 10.0 if xp[-1] > 1 else xp > 0.3 * xp[-1]
    for prod in (prod_b, prod_B):
        runmax = np.maximum.accumulate(prod)
        if np.sum(window) >= 8:
            slope = fit_loglog_slope(xp[window], np.maximum(runmax[window], 1e-300))
            if slope > 0.05:
                raise DivergentSup(
                    f"criterion sup still grows with the truncation length "
                    f"(log-log slope {slope:.3f})")
    b = float(prod_b.max())
    B = float(prod_B.max())
    accepted = bool(np.isfinite(b) and np.isfinite(B))
    beta_wp = BetaFunction.affine(beta_family, 12.0 * B, 0.0) if accepted else None
    return TailBetaResult(b=b, B=B, accepted=accepted,
                          C_range=(0.25 * b, 12.0 * B), beta_wp=beta_wp)


# ---------------------------------------------------------------------------
# Bakry-Emery curvature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BakryEmery:
    rho: float
    C_LS: Optional[float]
    w_osc: float


def bakry_emery(mu: ProbabilityMeasure1D, w_osc: float = 0.0) -> BakryEmery:
    """rho = inf V'' on the grid; C_LS = exp(w_osc)/rho when rho > 0, else None.

    w_osc is the caller's oscillation bound for a bounded perturbation w of
    the potential (Holley-Stroock).  In the canonical convention the curvature
    identity Gamma_2(f) = (1/2) f''^2 + V'' f'^2 makes rho = inf V'' exact.
    """
    v2 = np.asarray(mu.spec.V2(mu.grid), dtype=float)
    rho = float(np.min(v2[np.isfinite(v2)]))
    c_ls = math.exp(w_osc) / rho if rho > 0 else None
    return BakryEmery(rho=rho, C_LS=c_ls, w_osc=float(w_osc))


def gamma2_identity_residual(mu: ProbabilityMeasure1D, f, f1, f2, f3, f4,
                             window: float = 2.0) -> float:
    """Max |Gamma_2(f) - [(1/2) f''^2 + V'' f'^2]| on |x| <= window.

    Gamma_2 is evaluated from its definition (1/2)(L Gamma(f) - 2 Gamma(f, Lf))
    with L = (1/2) d^2 - V' d, using the supplied derivative callables.
    """
    x = mu.grid[np.abs(mu.grid) <= window]
    h = 1e-4 * (1.0 + np.abs(x))
    spec = mu.spec
    vp = (spec.V(x + h) - spec.V(x - h)) / (2.0 * h)
    v2 = np.asarray(spec.V2(x), dtype=float)
    Lf = 0.5 * f2(x) - vp * f1(x)
    # d/dx of Gamma(f) = 2 f' f'' ; second derivative = 2 f''^2 + 2 f' f'''
    dGamma = 2.0 * f1(x) * f2(x)
    d2Gamma = 2.0 * f2(x) ** 2 + 2.0 * f1(x) * f3(x)
    LGamma = 0.5 * d2Gamma - vp * dGamma
    # Gamma(f, Lf) = f' * (Lf)'
    dLf = 0.5 * f3(x) - v2 * f1(x) - vp * f2(x)
    gamma2 = 0.5 * (LGamma - 2.0 * f1(x) * dLf)
    closed = 0.5 * f2(x) ** 2 + v2 * f1(x) ** 2
    return float(np.max(np.abs(gamma2 - closed)))


# ---------------------------------------------------------------------------
# Drift-tail beta and the capacity condition
# ---------------------------------------------------------------------------

def drift_tail_beta(p: float, d_p: float) -> BetaFunction:
    """Weak Poincare beta from the drift-tail criterion x.b(x) <= -r |x|^{1-p}:
    beta(s) = d_p * log(2/s)^{2p/(1+p)}."""
    if not (0.0 < p < 1.0) or d_p <= 0:
        raise BadExponent("need 0 < p < 1 and d_p > 0")
    return BetaFunction.logpower(d_p, 2.0 * p / (1.0 + p), s0=2.0)


@dataclass(frozen=True)
class CapacityCheck:
    HprimeF_sup_right: float
    HprimeF_sup_left: float
    C_cap: float
    C_cap_argmax: float
    C_eta_bound: float
    alt_remark_ratio_sup: float
    alt_remark_flag: str


def capacity_condition_check(mu: ProbabilityMeasure1D, F: Callable,
                             eta, a: float, rho: float) -> CapacityCheck:
    """The two tail sups with weight F, the capacity ratio C_cap and the
    resulting I_psi constant bound.

    C_cap = sup_{u > a} eta(rho u) / (u^2 eta''(u) F(u)) on a log probe grid
    up to u = 1e8;
    C_eta_bound = max(eta''(a)(1 + (rho-1)^2) C_P_upper / eta''(rho a),
                      rho^2 C_cap / (rho - 1)^2)
    with C_P_upper the 4B end of the Muckenhoupt bracket.  The alternative
    tail-set ratio of the relaxed condition is evaluated exactly as printed
    and flagged as direction-ambiguous.
    """
    if rho <= 1.0:
        raise BadExponent("rho must exceed 1")
    if a <= max(2.0, eta.b):
        raise BadExponent("a must exceed max(2, b)")
    try:
        bracket = muckenhoupt_poincare(mu)
    except (VanishingDensity, MissingPoincare) as exc:
        raise MissingPoincare(str(exc)) from exc
    wf = muckenhoupt_poincare(mu, F=F)
    u = np.geomspace(a * (1.0 + 1e-9), 1e8, 3000)
    with np.errstate(over="ignore"):
        ratio = (np.asarray(eta.eta(rho * u), float)
                 / (u**2 * np.asarray(eta.eta_second(u), float)
                    * np.asarray(F(u), float)))
    tail = u > 1e7
    slope = fit_loglog_slope(u[tail], np.maximum(ratio[tail], 1e-300))
    if slope > 0.05 and ratio[tail].max() >= 0.99 * np.nanmax(ratio):
        raise DivergentCcap(f"capacity ratio grows along the probe grid (slope {slope:.3f})")
    c_cap, arg = scan_sup(u, ratio)
    d2a = float(eta.eta_second(a))
    d2ra = float(eta.eta_second(rho * a))
    c_p_upper = bracket.C_P_interval[1]
    c_eta = max(d2a * (1.0 + (rho - 1.0) ** 2) * c_p_upper / d2ra,
                rho**2 * c_cap / (rho - 1.0) ** 2)
    if not math.isfinite(c_eta):
        raise DivergentCcap(f"the C_eta bound overflows at rho = {rho:g}")
    # Remark-style alternative condition along tail sets A = [x, inf):
    # eta''(1/mu(A)) / (mu(A) eta(rho/mu(A))) <= C_c * Cap_mu(A),
    # Cap_mu([x,inf)) = 1 / int_m^x (1/pdf).
    m_idx, right_tail, _, hardy_right, _ = _tail_and_hardy(mu)
    tailm = right_tail[m_idx:]
    keep = (tailm > 1e-12) & (tailm < 0.5) & (hardy_right > 0)
    with np.errstate(over="ignore", divide="ignore"):
        inv_mu = 1.0 / tailm[keep]
        alt = (np.asarray(eta.eta_second(inv_mu), float)
               / (tailm[keep] * np.asarray(eta.eta(rho * inv_mu), float))
               * hardy_right[keep])
    alt_sup = float(np.nanmax(alt)) if len(alt) else float("nan")
    return CapacityCheck(
        HprimeF_sup_right=float(wf.B_plus), HprimeF_sup_left=float(wf.B_minus),
        C_cap=float(c_cap), C_cap_argmax=float(arg), C_eta_bound=float(c_eta),
        alt_remark_ratio_sup=alt_sup,
        alt_remark_flag="direction-ambiguous; evaluated as printed")


# ---------------------------------------------------------------------------
# beta transforms between the inequality families
# ---------------------------------------------------------------------------

def _legendre_conjugate(gamma_vals: np.ndarray, u: np.ndarray, y: np.ndarray):
    """gamma*(y) = sup_u (u y - gamma(u)) over a log grid (upper envelope)."""
    return np.max(u[None, :] * y[:, None] - gamma_vals[None, :], axis=1)


def _s_grid(beta: BetaFunction) -> np.ndarray:
    return np.geomspace(1e-12, beta.s_max if beta.s_max > 0 else 1.0, 2000)


def beta_orlicz(beta_wp: BetaFunction, phi: Callable) -> BetaFunction:
    """beta_zeta(s) = 6 beta_WP((1/4) zeta-bar(s/2)) with
    zeta-bar(u) = 1/gamma*(1/u), gamma(u) = zeta(sqrt u), zeta(u) = u phi(u).

    gamma* is computed numerically on a log grid; a non-convex gamma triggers
    NonYoungWarning (the sup is automatically the convex hull).
    """
    s_grid = _s_grid(beta_wp)
    u = np.geomspace(1e-8, 1e8, 2000)
    gamma_vals = np.sqrt(u) * np.asarray(phi(np.sqrt(u)), dtype=float)
    d2 = np.diff(np.diff(gamma_vals) / np.diff(u))
    if np.any(d2 < -1e-9 * np.abs(gamma_vals[1:-1]).max()):
        warnings.warn("gamma(u) = zeta(sqrt u) is not convex on the probe "
                      "grid; proceeding with its convex hull",
                      NonYoungWarning)
    y = 1.0 / s_grid[::-1]  # increasing y grid
    gstar = _legendre_conjugate(gamma_vals, u, y)

    def zeta_bar(v):
        v = np.asarray(v, dtype=float)
        gs = np.interp(1.0 / v, y, gstar)
        return 1.0 / np.maximum(gs, 1e-300)

    vals = 6.0 * beta_wp(np.maximum(0.25 * zeta_bar(s_grid / 2.0), 1e-300))
    return BetaFunction.tabulated(s_grid, vals)


def beta_hellinger_forward(beta_h: BetaFunction) -> BetaFunction:
    """gamma_H(s) = s^{1/2} beta_H(k s^{1/2}), k = (sqrt2-1)/(2 sqrt2)."""
    s_grid = _s_grid(beta_h)
    vals = np.sqrt(s_grid) * beta_h(np.minimum(HELLINGER_CAP_CONST * np.sqrt(s_grid),
                                               beta_h.s_max))
    return BetaFunction.tabulated(s_grid, vals)


def beta_hellinger_converse(gamma: BetaFunction) -> BetaFunction:
    """beta_H(s) = 24 gamma(s^2)/s from a capacity weight gamma."""
    s_grid = _s_grid(gamma)
    vals = 24.0 * gamma(np.minimum(s_grid**2, gamma.s_max)) / s_grid
    return BetaFunction.tabulated(s_grid, vals)


def beta_hellinger_to_wp(beta_h: BetaFunction) -> BetaFunction:
    """beta_WP = 12 gamma_H (requires gamma_H non-increasing; the tabulated
    output monotonizes and records violations)."""
    s_grid = _s_grid(beta_h)
    vals = 12.0 * np.sqrt(s_grid) * beta_h(np.minimum(HELLINGER_CAP_CONST * np.sqrt(s_grid),
                                                      beta_h.s_max))
    return BetaFunction.tabulated(s_grid, vals)


def beta_curvature_propagated(beta: BetaFunction, rho: float) -> PropagatedBetaFamily:
    """The two-argument family (1 - e^{-rho t})/rho + e^{-rho t} beta(s), rho >= 0;
    the super-Poincare propagation has the same shape."""
    if not rho >= 0:
        raise BadExponent("propagated transforms need rho >= 0")
    return PropagatedBetaFamily(rho=float(rho), base=beta)


def beta_sp_from_F(F: Callable, c: float = 1.0) -> BetaFunction:
    """beta_SP(s) = c / F(s) for s large (c is a caller parameter)."""
    s = np.geomspace(1.0, 1e8, 2000)
    vals = c / np.maximum(np.asarray(F(s), dtype=float), 1e-300)
    return BetaFunction.tabulated(s, vals)
