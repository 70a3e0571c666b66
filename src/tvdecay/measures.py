"""1-D probability measures mu ~ exp(-2V) dx on a truncated grid.

Convention fixed project-wide: the invariant measure is mu = exp(-2V)/Z,
the generator is L = (1/2) d^2/dx^2 - V' d/dx and the carre du champ is
Gamma(f) = |f'|^2.  Densities h are always relative to mu, never to
Lebesgue, so every functional below reads off its defining integral
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import (
    GridMismatch,
    InvalidSpec,
    NonIntegrablePotential,
    NotADensity,
)
from ._numerics import cumtrapz0, trapezoid_weights

# A GridFunction is a plain float array aligned with a measure's grid.
GridFunction = np.ndarray

_EXPANSION_CAP = 200.0
_MASS_TOL = 1e-6


@dataclass(frozen=True)
class PotentialSpec:
    """Potential V defining mu ~ exp(-2V) dx.

    Each constructor binds V, its second derivative V2 (of the smooth part,
    used by the curvature check) and, where the family fixes one, the
    truncation domain.

    Families
    --------
    gaussian(sigma)
        V(x) = x^2 / (4 sigma^2), i.e. mu = N(0, sigma^2).  The project's
        reference case sigma = sqrt(1/2) gives V(x) = x^2/2.
    power(alpha, scale)
        V(x) = |x/scale|^alpha.
    power_log(alpha)
        V(x) = |x|^alpha + log(1 + |x| sin^2 x).
    tabulated(x, v)
        Monotone-cubic interpolation of sampled V values; the truncation
        domain is the sampled range.
    """

    family: str
    params: dict
    V: Callable = field(compare=False, repr=False)
    V2: Callable = field(compare=False, repr=False)
    domain: Optional[tuple] = field(default=None, compare=False, repr=False)

    @staticmethod
    def gaussian(sigma: float = math.sqrt(0.5)) -> "PotentialSpec":
        # V divides by sigma^2, which must be a positive finite float
        if not (sigma > 0 and 0.0 < sigma * sigma < math.inf):
            raise InvalidSpec(f"gaussian sigma must be positive with a positive "
                              f"finite square, got sigma = {sigma!r}")
        sigma = float(sigma)
        return PotentialSpec(
            "gaussian", {"sigma": sigma},
            V=lambda x: np.square(np.asarray(x, float)) / (4.0 * sigma**2),
            V2=lambda x: np.full_like(np.asarray(x, float), 1.0 / (2.0 * sigma**2)))

    @staticmethod
    def power(alpha: float, scale: float = 1.0) -> "PotentialSpec":
        if not (alpha > 0 and scale > 0):
            raise InvalidSpec("power family needs alpha > 0 and scale > 0")
        alpha, scale = float(alpha), float(scale)

        def V2(x):
            x = np.asarray(x, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = alpha * (alpha - 1.0) * np.abs(x / scale) ** (alpha - 2.0) / scale**2
            if alpha == 2.0:
                return np.full_like(x, 2.0 / scale**2)
            return np.where(x == 0.0, 0.0 if alpha > 2.0 else np.inf, out)
        return PotentialSpec("power", {"alpha": alpha, "scale": scale},
                             V=lambda x: np.abs(np.asarray(x, float) / scale) ** alpha, V2=V2)

    @staticmethod
    def power_log(alpha: float) -> "PotentialSpec":
        if not (1.0 < alpha < 2.0):
            raise InvalidSpec("power_log is used with 1 < alpha < 2")
        alpha = float(alpha)

        def V(x):
            x = np.asarray(x, dtype=float)
            return np.abs(x) ** alpha + np.log1p(np.abs(x) * np.sin(x) ** 2)

        def V2(x):
            # finite differences on the full (non-convex) potential
            x = np.asarray(x, dtype=float)
            h = 1e-5 * (1.0 + np.abs(x))
            return (V(x + h) - 2.0 * V(x) + V(x - h)) / h**2
        return PotentialSpec("power_log", {"alpha": alpha}, V=V, V2=V2)

    @staticmethod
    def tabulated(x, v) -> "PotentialSpec":
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if x.ndim != 1 or x.shape != v.shape or len(x) < 4:
            raise InvalidSpec("tabulated potential needs matching 1-D arrays")
        if not np.all(np.diff(x) > 0):
            raise InvalidSpec("tabulated x must be strictly increasing")
        if not np.all(np.isfinite(v)):
            raise InvalidSpec("tabulated V must be finite")
        interp = PchipInterpolator(x, v, extrapolate=True)
        return PotentialSpec("tabulated", {"x": x, "v": v}, V=interp,
                             V2=interp.derivative(2), domain=(float(x[0]), float(x[-1])))


@dataclass(frozen=True)
class ProbabilityMeasure1D:
    """Truncated-grid representation of mu with quadrature, CDF and median."""

    grid: np.ndarray
    pdf: np.ndarray
    log_partition: float
    cdf: np.ndarray
    median: float
    v_values: np.ndarray
    spec: Optional[PotentialSpec] = None

    def __post_init__(self):
        for arr in (self.grid, self.pdf, self.cdf, self.v_values):
            arr.setflags(write=False)

    @property
    def weights(self) -> np.ndarray:
        return trapezoid_weights(self.grid)

    @property
    def dx(self) -> float:
        return float(self.grid[1] - self.grid[0])


def _truncation_bounds(spec: PotentialSpec, tail_tol: float):
    if spec.domain is not None:
        return spec.domain
    scan = np.linspace(-8.0, 8.0, 2001)
    vs = spec.V(scan)
    if not np.all(np.isfinite(vs)):
        raise InvalidSpec("potential is not finite on the core domain")
    v_min = float(vs.min())
    x_peak = float(scan[int(np.argmin(vs))])

    def ok(x):
        return math.exp(-2.0 * (float(spec.V(x)) - v_min)) <= tail_tol

    bounds = []
    for sign in (-1.0, 1.0):
        L = max(1.0, abs(x_peak) + 1.0)
        while not ok(x_peak + sign * L):
            L *= 1.25
            if L > _EXPANSION_CAP:
                raise NonIntegrablePotential(
                    f"tail test exp(-2V) <= {tail_tol:g}*peak still fails at |x|={_EXPANSION_CAP}")
        # pull the bound back in for a tight domain
        lo, hi = L / 1.25, L
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if ok(x_peak + sign * mid):
                hi = mid
            else:
                lo = mid
        bounds.append(x_peak + sign * hi)
    return bounds[0], bounds[1]


def build_measure(spec: PotentialSpec, n_points: int = 4001,
                  tail_tol: float = 1e-16) -> ProbabilityMeasure1D:
    """Build mu ~ exp(-2V)/Z on a uniform grid truncated by the tail test.

    The truncation bounds are expanded (symmetrically about the potential
    minimum, cap |x| = 200) until exp(-2V) <= tail_tol * peak at both ends,
    then the density is normalized by composite trapezoid quadrature.
    """
    if n_points < 101:
        raise InvalidSpec("n_points must be at least 101")
    x_lo, x_hi = _truncation_bounds(spec, tail_tol)
    grid = np.linspace(x_lo, x_hi, int(n_points))
    v = np.asarray(spec.V(grid), dtype=float)
    if not np.all(np.isfinite(v)):
        raise InvalidSpec("potential is not finite on the truncation domain")
    # neighbours are coupled through exp(-2 dV), which overflows past |2 dV| ~ 709
    jump = float(np.max(np.abs(np.diff(v))))
    if 2.0 * jump > 700.0:
        raise InvalidSpec(f"grid.n_points = {n_points} does not resolve mu: V changes "
                          f"by {jump:.3g} between neighbouring points (at most 350)")
    v_min = float(v.min())
    raw = np.exp(-2.0 * (v - v_min))
    w = trapezoid_weights(grid)
    z_shifted = float(np.sum(w * raw))
    log_z = math.log(z_shifted) - 2.0 * v_min
    pdf = raw / z_shifted
    if pdf[0] > tail_tol * 10 * pdf.max() or pdf[-1] > tail_tol * 10 * pdf.max():
        raise NonIntegrablePotential("pdf does not decay at the truncation boundary")
    cdf = cumtrapz0(pdf, grid)
    cdf /= cdf[-1]
    k = int(np.searchsorted(cdf, 0.5))
    k = min(max(k, 1), len(grid) - 1)
    c0, c1 = cdf[k - 1], cdf[k]
    median = float(grid[k - 1] + (0.5 - c0) / max(c1 - c0, 1e-300) * (grid[k] - grid[k - 1]))
    return ProbabilityMeasure1D(grid=grid, pdf=pdf, log_partition=log_z,
                                cdf=cdf, median=median, v_values=v, spec=spec)


def _check_aligned(mu: ProbabilityMeasure1D, g) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.shape != mu.grid.shape:
        raise GridMismatch(f"grid function has shape {g.shape}, grid {mu.grid.shape}")
    return g


def integrate(mu: ProbabilityMeasure1D, g) -> float:
    """Trapezoid value of int g dmu."""
    g = _check_aligned(mu, g)
    return float(np.sum(mu.weights * mu.pdf * g))


def _check_density(mu: ProbabilityMeasure1D, h) -> np.ndarray:
    h = _check_aligned(mu, h)
    if not np.all(np.isfinite(h)):
        raise NotADensity("h has non-finite values")
    if h.min() < -1e-12:
        raise NotADensity(f"h has negative values (min {h.min():.3e})")
    mass = integrate(mu, np.maximum(h, 0.0))
    if abs(mass - 1.0) > _MASS_TOL:
        raise NotADensity(f"int h dmu = {mass:.8f}, expected 1 +- {_MASS_TOL:g}")
    return np.maximum(h, 0.0)


def tv_distance(mu: ProbabilityMeasure1D, h) -> float:
    """Total variation ||h mu - mu||_TV = int |h - 1| dmu, in [0, 2]."""
    h = _check_density(mu, h)
    return integrate(mu, np.abs(h - 1.0))


def hellinger_distance(mu: ProbabilityMeasure1D, h) -> float:
    """Hellinger distance d_H(h mu, mu) = 2 int (1 - sqrt h) dmu."""
    h = _check_density(mu, h)
    return 2.0 * integrate(mu, 1.0 - np.sqrt(h))


def _entropy_integrand(h: np.ndarray) -> np.ndarray:
    out = np.zeros_like(h)
    pos = h > 0
    out[pos] = h[pos] * np.log(h[pos])
    return out


@dataclass(frozen=True)
class Functionals:
    """Static functionals of a density h against mu.

    v_reverse and e_reverse are the reversed-role diagnostics
    Var_{h mu}(1/h) = int (1/h) dmu - 1 and int log(1/h) dmu; they are only
    defined when h >= 1/2 everywhere and are None otherwise.
    """

    tv: float
    hellinger: float
    variance: float
    entropy: float
    i_psi: Optional[float]
    v_reverse: Optional[float]
    e_reverse: Optional[float]


def functionals(mu: ProbabilityMeasure1D, h, psi=None) -> Functionals:
    """Evaluate tv, hellinger, variance, entropy, I_psi and the reversed pair.

    psi is a PsiProfile (or None, which nulls i_psi only).
    """
    h = _check_density(mu, h)
    tv = integrate(mu, np.abs(h - 1.0))
    hel = 2.0 * integrate(mu, 1.0 - np.sqrt(h))
    var = integrate(mu, (h - 1.0) ** 2)
    ent = integrate(mu, _entropy_integrand(h))
    i_psi = None if psi is None else integrate(mu, psi.psi(h))
    v_rev = e_rev = None
    if h.min() >= 0.5 - 1e-12:
        v_rev = integrate(mu, 1.0 / h) - 1.0
        e_rev = integrate(mu, -np.log(h))
    return Functionals(tv=tv, hellinger=hel, variance=var, entropy=ent,
                       i_psi=i_psi, v_reverse=v_rev, e_reverse=e_rev)


@dataclass(frozen=True)
class PinskerCheck:
    tv: float
    rhs: float
    holds: bool


def pinsker_check(mu: ProbabilityMeasure1D, h, psi, c_psi: float) -> PinskerCheck:
    """Check the generalized Pinsker bound tv <= c_psi * sqrt(I_psi)."""
    h = _check_density(mu, h)
    tv = integrate(mu, np.abs(h - 1.0))
    i_psi = max(integrate(mu, psi.psi(h)), 0.0)
    rhs = c_psi * math.sqrt(i_psi)
    return PinskerCheck(tv=tv, rhs=rhs, holds=bool(tv <= rhs + 1e-9))


# -- initial density shapes for the simulator ----------------------------------

def eigen_perturbation(mu: ProbabilityMeasure1D, eps: float) -> GridFunction:
    """h = (1 + eps * f)_+ renormalized, f the standardized linear mode."""
    m = integrate(mu, mu.grid)
    var = integrate(mu, (mu.grid - m) ** 2)
    f = (mu.grid - m) / math.sqrt(var)
    h = np.maximum(1.0 + eps * f, 0.0)
    return h / integrate(mu, h)

def step_density(mu: ProbabilityMeasure1D) -> GridFunction:
    """h = 1_{x > median} / mu((median, inf)), the two-valued step."""
    h = np.where(mu.grid > mu.median, 1.0, 0.0)
    return h / integrate(mu, h)


def shifted_gaussian_density(mu: ProbabilityMeasure1D, shift: float) -> GridFunction:
    """Density ratio of the shifted measure exp(-2V(x - shift)) against mu."""
    v_sh = np.asarray(mu.spec.V(mu.grid - shift), dtype=float)
    h = np.exp(2.0 * (mu.v_values - v_sh))
    return h / integrate(mu, h)


def tail_ratio_density(mu: ProbabilityMeasure1D, p: float,
                       cap: float = 50.0):
    """Heavy-tail ratio h ~ (1+x^2)^(-(1+p)/2) / pdf, capped and renormalized.

    Returns (h, clipped_mass) where clipped_mass is the relative mass removed
    by the cap before renormalization.
    """
    lebesgue = (1.0 + mu.grid**2) ** (-(1.0 + p) / 2.0)
    raw = lebesgue / np.maximum(mu.pdf, 1e-300)
    raw = raw / integrate(mu, raw)
    h = np.minimum(raw, cap)
    clipped = integrate(mu, raw - h)
    return h / integrate(mu, h), float(clipped)


def tabulated_density(mu: ProbabilityMeasure1D, x, h) -> GridFunction:
    """Interpolate sampled (x, h) onto the grid and renormalize."""
    interp = PchipInterpolator(np.asarray(x, float), np.asarray(h, float),
                               extrapolate=True)
    vals = np.maximum(interp(mu.grid), 0.0)
    mass = integrate(mu, vals)
    if mass <= 0:
        raise NotADensity("tabulated density has no mass on the grid")
    return vals / mass
