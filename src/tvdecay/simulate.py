"""Fokker-Planck evolution of densities h relative to mu, plus the exact
Ornstein-Uhlenbeck kernel oracle.

The flow is d/dt h = L h with L h = (1/2) e^{2V} (e^{-2V} h')' discretized in
divergence form with harmonic-mean face weights and zero-flux boundaries, so
the discrete generator annihilates constants identically, conserves the
mu-weighted mass exactly and is self-adjoint in l^2(mu).  Implicit Euler is
an M-matrix scheme: positivity and every Jensen-type monotone functional
(TV, Var, Ent, I_psi, d_H, V, E) are preserved step by step, not just in the
continuum limit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import solve_banded

from .errors import CFLWarning, LowerBoundViolated, NotADensity, WrongMeasure
from .measures import (
    Functionals,
    ProbabilityMeasure1D,
    _check_density,
    functionals,
    integrate,
)
from ._numerics import trapezoid_weights


@dataclass(frozen=True)
class SimConfig:
    dt: float
    t_end: float
    scheme: str = "implicit_euler"
    save_every: int = 1

    def __post_init__(self):
        if not (self.dt > 0):
            raise ValueError("dt must be positive")
        if not (math.isfinite(self.t_end) and self.t_end >= self.dt):
            raise ValueError("t_end must be finite and at least dt")
        if self.save_every < 1:
            raise ValueError("save_every must be >= 1")
        if self.scheme not in ("implicit_euler", "crank_nicolson"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass
class DiagnosticsSeries:
    """Per-save functionals along a run; dissipation_lhs is the centered time
    difference of I_psi and dissipation_rhs is (1/2) int psi''(h) |h'|^2 dmu,
    so the flow identity reads lhs = -rhs."""

    times: np.ndarray
    tv: np.ndarray
    hellinger: np.ndarray
    variance: np.ndarray
    entropy: np.ndarray
    i_psi: np.ndarray
    v_reverse: np.ndarray
    e_reverse: np.ndarray
    dissipation_lhs: np.ndarray
    dissipation_rhs: np.ndarray
    mass: np.ndarray
    min_h: np.ndarray
    reverse_transformed: bool = False
    states: Optional[list] = None


def _operator_coefficients(mu: ProbabilityMeasure1D):
    """Sub/diag/super coefficients of the discrete generator L.

    Built from the potential increments only (w_face/rho_i = 2r/(1+r) with
    r = exp(-2 dV)), so tail underflow of exp(-2V) never enters.
    """
    v = mu.v_values
    dx = mu.dx
    n = len(v)
    r_plus = np.exp(-2.0 * (v[1:] - v[:-1]))      # rho_{i+1}/rho_i
    a_plus = 2.0 * r_plus / (1.0 + r_plus)        # w_{i+1/2}/rho_i
    a_minus = 2.0 * (1.0 / r_plus) / (1.0 + 1.0 / r_plus)  # w_{i+1/2}/rho_{i+1}
    lower = np.zeros(n)
    diag = np.zeros(n)
    upper = np.zeros(n)
    inv2dx2 = 1.0 / (2.0 * dx * dx)
    # interior rows
    upper[1:-1] = a_plus[1:] * inv2dx2
    lower[1:-1] = a_minus[:-1] * inv2dx2
    diag[1:-1] = -(a_plus[1:] + a_minus[:-1]) * inv2dx2
    # half-cell boundary rows (zero flux): factor 2 from the dx/2 cell
    upper[0] = a_plus[0] * 2.0 * inv2dx2
    diag[0] = -upper[0]
    lower[-1] = a_minus[-1] * 2.0 * inv2dx2
    diag[-1] = -lower[-1]
    return lower, diag, upper


def _banded(lower, diag, upper, alpha):
    """Banded matrix I - alpha*L in solve_banded layout."""
    n = len(diag)
    ab = np.zeros((3, n))
    ab[0, 1:] = -alpha * upper[:-1]
    ab[1, :] = 1.0 - alpha * diag
    ab[2, :-1] = -alpha * lower[1:]
    return ab


def _apply_L(lower, diag, upper, h):
    out = diag * h
    out[:-1] += upper[:-1] * h[1:]
    out[1:] += lower[1:] * h[:-1]
    return out


def _grad(mu: ProbabilityMeasure1D, h: np.ndarray) -> np.ndarray:
    return np.gradient(h, mu.grid)


def evolve(mu: ProbabilityMeasure1D, h0, config: SimConfig,
           psi=None, keep_states: bool = False) -> DiagnosticsSeries:
    """Run the flow from h0 and record diagnostics every save_every steps.

    When min h0 < 1/2 the reversed functionals V, E are recorded for the
    mixture flow (1 + h_t)/2, which is itself the exact flow of (1 + h0)/2;
    the series flag `reverse_transformed` records this.
    """
    h = _check_density(mu, h0)
    lower, diag, upper = _operator_coefficients(mu)
    dt = config.dt
    n_steps = int(round(config.t_end / dt))
    if config.scheme == "implicit_euler":
        ab = _banded(lower, diag, upper, dt)
        explicit_half = None
    else:
        ab = _banded(lower, diag, upper, 0.5 * dt)
        explicit_half = 0.5 * dt
    transformed = bool(h.min() < 0.5 - 1e-12)
    times, rows, masses, minima, rhs_list = [], [], [], [], []
    states = [] if keep_states else None
    warned = False

    def record(t, h_t):
        if h_t.min() < -1e-12:
            # crank_nicolson oscillations: diagnose a cleaned copy, keep the
            # raw state for the evolution itself
            h_t = np.maximum(h_t, 0.0)
            h_t = h_t / integrate(mu, h_t)
        f = functionals(mu, h_t, psi=psi)
        if transformed:
            mix = 0.5 * (1.0 + h_t)
            v_rev = integrate(mu, 1.0 / mix) - 1.0
            e_rev = integrate(mu, -np.log(mix))
        else:
            v_rev = f.v_reverse
            e_rev = f.e_reverse
        times.append(t)
        rows.append((f.tv, f.hellinger, f.variance, f.entropy,
                     np.nan if f.i_psi is None else f.i_psi, v_rev, e_rev))
        masses.append(integrate(mu, h_t))
        minima.append(float(h_t.min()))
        if psi is not None:
            grad = _grad(mu, h_t)
            rhs_list.append(0.5 * integrate(mu, np.asarray(psi.psi_second(h_t), float)
                                            * grad * grad))
        else:
            rhs_list.append(np.nan)
        if keep_states:
            states.append(h_t.copy())

    record(0.0, h)
    for k in range(1, n_steps + 1):
        if explicit_half is None:
            h = solve_banded((1, 1), ab, h)
        else:
            rhs = h + explicit_half * _apply_L(lower, diag, upper, h)
            h = solve_banded((1, 1), ab, rhs)
            neg = np.minimum(h, 0.0)
            neg_mass = -float(np.sum(mu.weights * mu.pdf * neg))
            if neg_mass > 1e-6 and not warned:
                warnings.warn(
                    f"crank_nicolson produced negative mass fraction "
                    f"{neg_mass:.2e} at step {k}; reduce dt", CFLWarning)
                warned = True
        if k % config.save_every == 0 or k == n_steps:
            record(k * dt, h)

    times = np.asarray(times)
    cols = np.asarray(rows, dtype=float)
    i_psi_col = cols[:, 4]
    lhs = np.full_like(times, np.nan, dtype=float)
    if len(times) >= 3 and psi is not None:
        lhs[1:-1] = (i_psi_col[2:] - i_psi_col[:-2]) / (times[2:] - times[:-2])
    return DiagnosticsSeries(
        times=times, tv=cols[:, 0], hellinger=cols[:, 1], variance=cols[:, 2],
        entropy=cols[:, 3], i_psi=i_psi_col,
        v_reverse=cols[:, 5], e_reverse=cols[:, 6],
        dissipation_lhs=lhs, dissipation_rhs=np.asarray(rhs_list, dtype=float),
        mass=np.asarray(masses), min_h=np.asarray(minima),
        reverse_transformed=transformed, states=states)


# ---------------------------------------------------------------------------
# Exact Ornstein-Uhlenbeck oracle
# ---------------------------------------------------------------------------

def _require_ou_measure(mu: ProbabilityMeasure1D):
    v_ref = 0.5 * mu.grid**2
    if np.max(np.abs(mu.v_values - v_ref)) > 1e-9 * (1.0 + np.max(np.abs(v_ref))):
        raise WrongMeasure("the exact kernel is for V(x) = x^2/2 "
                           "(the Gaussian measure with variance 1/2)")


def ou_exact_evolve(mu: ProbabilityMeasure1D, h0, t: float) -> np.ndarray:
    """Exact P_t h0 through the Mehler kernel
    P_t(x, dy) = (pi (1 - e^{-2t}))^{-1/2} exp(-(y - x e^{-t})^2/(1 - e^{-2t})) dy,
    quadratured against h0 on the grid and re-expressed as a density w.r.t. mu.
    """
    _require_ou_measure(mu)
    if t <= 0:
        raise ValueError("t must be positive")
    h0 = np.asarray(h0, dtype=float)
    if h0.shape != mu.grid.shape:
        raise NotADensity("h0 is not aligned with the measure grid")
    q = math.exp(-t)
    var = 1.0 - q * q
    x = mu.grid
    w = trapezoid_weights(x)
    # integrate over the start variable y: h_t(x) = int k(x, y) h0(y) dy,
    # with k the reversible kernel density in y
    out = np.empty_like(x)
    block = 256
    norm = 1.0 / math.sqrt(math.pi * var)
    weighted = w * h0
    for i0 in range(0, len(x), block):
        xs = x[i0:i0 + block, None]
        kernel = norm * np.exp(-(x[None, :] - q * xs) ** 2 / var)
        out[i0:i0 + block] = kernel @ weighted
    mass = integrate(mu, out)
    if abs(mass - 1.0) > 1e-8:
        raise NotADensity(f"kernel quadrature lost mass: int = {mass:.2e}")
    return out


# ---------------------------------------------------------------------------
# Reversed-role diagnostics and the contraction property
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReverseDiagnostics:
    times: np.ndarray
    V: np.ndarray
    E: np.ndarray
    v_monotone: bool
    e_monotone: bool


def reverse_diagnostics(series: DiagnosticsSeries) -> ReverseDiagnostics:
    """V(t), E(t) with monotonicity flags (non-increase within slack 1e-6).

    Raises LowerBoundViolated when the effective flow dropped below 1/2,
    which cannot happen analytically and signals a solver defect.
    """
    min_eff = series.min_h if not series.reverse_transformed else (
        0.5 * (1.0 + series.min_h))
    if np.min(min_eff) < 0.5 - 1e-9:
        raise LowerBoundViolated(
            f"min h_t = {np.min(min_eff):.12f} dropped below 1/2")
    V, E = series.v_reverse, series.e_reverse
    v_mono = bool(np.all(np.diff(V) <= 1e-6))
    e_mono = bool(np.all(np.diff(E) <= 1e-6))
    return ReverseDiagnostics(times=series.times, V=V, E=E,
                              v_monotone=v_mono, e_monotone=e_mono)


def contraction_check(mu: ProbabilityMeasure1D, h0, g0,
                      config: SimConfig) -> dict:
    """Evolve two densities and count violations of the L^1 contraction
    int |h_t - g_t| dmu being non-increasing (slack 1e-8 per save)."""
    sh = evolve(mu, h0, config, keep_states=True)
    sg = evolve(mu, g0, config, keep_states=True)
    dists = np.array([integrate(mu, np.abs(a - b))
                      for a, b in zip(sh.states, sg.states)])
    violations = int(np.sum(np.diff(dists) > 1e-8))
    return {"times": sh.times, "l1_distance": dists, "violations": violations}
