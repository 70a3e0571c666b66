"""1-D probability measures mu ~ exp(-2V) dx on a truncated grid.

Convention fixed project-wide: the invariant measure is mu = exp(-2V)/Z,
the generator is L = (1/2) d^2/dx^2 - V' d/dx and the carre du champ is
Gamma(f) = |f'|^2.  Densities h are always relative to mu, never to
Lebesgue, so every functional below reads off its defining integral
directly.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

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

    def __init__(self, family: str, params: dict, V: Callable, V2: Callable,
                 domain: Optional[tuple] = None):
        self.family, self.params = family, params
        self.V, self.V2, self.domain = V, V2, domain

    def __eq__(self, other):
        """Equal family and params; the bound callables and domain are not
        compared."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.family, self.params) == (other.family, other.params)

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
        from scipy.interpolate import PchipInterpolator

        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if x.ndim != 1 or x.shape != v.shape:
            raise InvalidSpec("tabulated potential needs matching 1-D arrays")
        if len(x) < 4:
            raise InvalidSpec(f"tabulated potential needs at least 4 points, got {len(x)}")
        if not np.all(np.diff(x) > 0):
            raise InvalidSpec("tabulated x must be strictly increasing")
        if not np.all(np.isfinite(v)):
            raise InvalidSpec("tabulated V must be finite")
        interp = PchipInterpolator(x, v, extrapolate=True)
        return PotentialSpec("tabulated", {"x": x, "v": v}, V=interp,
                             V2=interp.derivative(2), domain=(float(x[0]), float(x[-1])))


class ProbabilityMeasure1D:
    """Truncated-grid representation of mu with quadrature, CDF and median.

    quadrature holds the trapezoid weights times pdf, so int g dmu is
    sum(quadrature * g).
    """

    def __init__(self, grid: np.ndarray, pdf: np.ndarray, log_partition: float,
                 cdf: np.ndarray, median: float, v_values: np.ndarray,
                 quadrature: np.ndarray, spec: Optional[PotentialSpec] = None):
        self.grid, self.pdf, self.log_partition, self.cdf = grid, pdf, log_partition, cdf
        self.median, self.v_values, self.quadrature, self.spec = median, v_values, quadrature, spec
        for arr in (grid, pdf, cdf, v_values, quadrature):
            arr.setflags(write=False)

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
    return ProbabilityMeasure1D(grid=grid, pdf=pdf, log_partition=log_z, cdf=cdf,
                                median=median, v_values=v, quadrature=w * pdf, spec=spec)


def _check_aligned(mu: ProbabilityMeasure1D, g) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.shape != mu.grid.shape:
        raise GridMismatch(f"grid function has shape {g.shape}, grid {mu.grid.shape}")
    return g


def integrate(mu: ProbabilityMeasure1D, g) -> float:
    """Trapezoid value of int g dmu."""
    return float(_integrate_rows(mu.quadrature, _check_aligned(mu, g)))


def _integrate_rows(quadrature: np.ndarray, g, out=None) -> np.ndarray:
    """int g dmu of each row of g, (n,) or (rows, n), given mu.quadrature
    in g's shape (a workspace's tiled copy for a block); a row's value is
    the same sum as `integrate` of that row, bit for bit.  The products go
    into out when it is given: equal contiguous shapes make them one 1-D
    loop."""
    return np.sum(np.multiply(quadrature, g, out=out), axis=-1)


def generator(mu: ProbabilityMeasure1D):
    """Sub/diag/super coefficients of the discrete generator L, self-adjoint
    in l^2(q), q = mu.quadrature: q_i upper_i = q_{i+1} lower_{i+1}.
    Built from the potential increments only (w_face/rho_i = 2r/(1+r) with
    r = exp(-2 dV)), so tail underflow of exp(-2V) never enters."""
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


def symmetric_generator(mu: ProbabilityMeasure1D):
    """Diagonal and off-diagonal of the symmetric S = -Q^{1/2} L Q^{-1/2}, q = mu.quadrature."""
    lower, diag, upper = generator(mu)
    return -diag, -np.sqrt(upper[:-1] * lower[1:])


def _gradient(f: np.ndarray, dx: float, out: np.ndarray) -> np.ndarray:
    """np.gradient(f, dx, axis=-1) of the contiguous (rows, n) block f, bit
    for bit, into out.  The interior is one 1-D loop over the flattened
    block; the edge formulas overwrite the entries where it mixes rows."""
    flat, inner = f.reshape(-1), out.reshape(-1)[1:-1]
    np.subtract(flat[2:], flat[:-2], out=inner)
    inner /= 2.0 * dx
    np.subtract(f[:, 1], f[:, 0], out=out[:, 0])
    np.subtract(f[:, -1], f[:, -2], out=out[:, -1])
    out[:, [0, -1]] /= dx
    return out


class BlockWorkspace:
    """Densities on mu's grid, one per row of `block`, with everything
    `functionals` writes while it diagnoses them.

    h is one density (n,), which becomes one row, or a (rows, n) block; it
    is held, not copied.  `functionals` reads the first `filled` rows (all
    of them at first) and writes only into the three scratch arrays and the
    bool mask, so one workspace serves every block of a run.  Every array
    it reads or writes is contiguous and of the block's shape, and only
    `quadrature`, mu.quadrature over the rows, is tiled from mu.
    """

    def __init__(self, mu: ProbabilityMeasure1D, h):
        h = np.asarray(h, dtype=float)
        if h.ndim != 2:
            h = _check_aligned(mu, h)[None]
        elif h.shape[1:] != mu.grid.shape:
            raise GridMismatch(f"density block has shape {h.shape}, grid {mu.grid.shape}")
        self.block, self.filled = h, len(h)
        self.quadrature = np.tile(mu.quadrature, (len(h), 1))
        self.clipped, self.work, self.tmp = np.empty((3,) + h.shape)
        self.mask = np.empty(h.shape, dtype=bool)


def _finite(x) -> bool:
    # a finite sum proves every entry finite: only a sum that is not
    # (an entry nan or inf, or an overflow) needs the full scan
    return math.isfinite(x.sum()) or bool(np.isfinite(x).all())


def _check_density(mu: ProbabilityMeasure1D, ws: BlockWorkspace):
    """(h clipped at 0, int h dmu, min h) of the densities h in the filled
    rows of ws, after checking them; one mass and one min h per row.

    Every row is checked in the order a single density is (finite, then
    min h >= -1e-12, then the mass); the first row that fails a check gives
    its message.  The clipped rows are written into ws.clipped.
    """
    rows = ws.filled
    h, clipped = ws.block[:rows], ws.clipped[:rows]
    if not _finite(h):
        raise NotADensity("h has non-finite values")
    h_min = h.min(axis=-1)
    negative = h_min < -1e-12
    if np.any(negative):
        raise NotADensity(f"h has negative values (min {h_min[negative][0]:.3e})")
    np.maximum(h, 0.0, out=clipped)
    mass = _integrate_rows(ws.quadrature[:rows], clipped, ws.tmp[:rows])
    off = np.abs(mass - 1.0) > _MASS_TOL
    if np.any(off):
        raise NotADensity(f"int h dmu = {mass[off][0]:.8f}, expected 1 +- {_MASS_TOL:g}")
    return clipped, mass, h_min


class Functionals:
    """Static functionals of a density h against mu.

    i_psi = int psi(h) dmu and its dissipation (1/2) int psi''(h) |h'|^2 dmu
    (h' = np.gradient(h, mu.dx)) are None when no psi is given.
    v_reverse and e_reverse are the reversed-role diagnostics
    Var_{g mu}(1/g) = int (1/g) dmu - 1 and int log(1/g) dmu of g = h, or of
    the mixture g = (1 + h)/2; they are only defined when g >= 1/2
    everywhere and are None otherwise.  mass and min_h are int h dmu and
    min h as the density check found them.  For a block of densities each
    field holds one float per row, with nan where a row's value is None.
    NAMES lists the fields in constructor order.
    """

    NAMES = ("tv", "hellinger", "variance", "entropy", "i_psi", "dissipation",
             "v_reverse", "e_reverse", "mass", "min_h")

    def __init__(self, tv: float, hellinger: float, variance: float, entropy: float,
                 i_psi: Optional[float], dissipation: Optional[float],
                 v_reverse: Optional[float], e_reverse: Optional[float],
                 mass: float, min_h: float):
        self.tv, self.hellinger, self.variance, self.entropy = tv, hellinger, variance, entropy
        self.i_psi, self.dissipation = i_psi, dissipation
        self.v_reverse, self.e_reverse = v_reverse, e_reverse
        self.mass, self.min_h = mass, min_h

    def __eq__(self, other):
        """Equal in every field, compared as a tuple of them would be."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)


def functionals(mu: ProbabilityMeasure1D, h, psi=None, mixture: bool = False) -> Functionals:
    """Evaluate every `Functionals` field of h; the dissipation's h' is
    np.gradient(h, mu.dx), bit for bit, on the generator's one spacing.

    psi is a PsiProfile (or None, which nulls i_psi and dissipation only);
    mixture=True takes the reversed pair of (1 + h)/2 instead of h.
    h is one density (n,), which gives floats and None, or a (rows, n) block
    of densities, or a BlockWorkspace built on mu, whose filled rows are
    diagnosed; a block or a workspace gives one float array per field with
    nan where the row's value is None.  Row k of a block equals the call on
    h[k] bit for bit; a bad row raises NotADensity as that call would.
    Every block-sized result goes into the workspace's scratch (a one-off
    workspace for an array h), psi's too, and h is never written.  What
    still allocates is row-sized, and psi's eta branch: the entries at or
    above psi.a are gathered and evaluated in new arrays, a few rows at a
    time.
    """
    if isinstance(h, BlockWorkspace):
        ws, single = h, False
    else:
        ws = BlockWorkspace(mu, h)
        single = np.ndim(h) != 2
    h, mass, h_min = _check_density(mu, ws)
    rows = len(h)
    quadrature = ws.quadrature[:rows]
    work, tmp, mask = ws.work[:rows], ws.tmp[:rows], ws.mask[:rows]

    def integral(g):
        return _integrate_rows(quadrature, g, tmp)

    d = np.subtract(h, 1.0, out=work)
    tv = integral(np.abs(d, out=tmp))
    var = integral(np.square(d, out=tmp))
    hel = 2.0 * integral(np.subtract(1.0, np.sqrt(h, out=tmp), out=tmp))
    # h log h, with log 1 = 0 where h = 0: only a block with some h <= 0
    # needs the guarded copy
    if (h_min > 0.0).all():
        log_h = np.log(h, out=work)
    else:
        np.copyto(work, h)
        np.copyto(work, 1.0, where=np.less_equal(h, 0.0, out=mask))
        log_h = np.log(work, out=work)
    ent = integral(np.multiply(h, log_h, out=tmp))
    i_psi, dissipation = np.full(rows, np.nan), np.full(rows, np.nan)
    if psi is not None:
        i_psi = integral(psi.psi(h, out=tmp, mask=mask))
        grad = _gradient(h, mu.dx, work)
        p2_grad = np.multiply(psi.psi_second(h, out=tmp, mask=mask), grad, out=tmp)
        dissipation = 0.5 * integral(np.multiply(p2_grad, grad, out=tmp))
    g = np.multiply(0.5, np.add(1.0, h, out=work), out=work) if mixture else h
    reverse = g.min(axis=-1) >= 0.5 - 1e-12
    # a row with g < 1/2 somewhere may hold g = 0: its pair is nan, not inf.
    # e = -int log g: negation is exact and commutes with the products and
    # the pairwise sum, so this is the sum of -log g, bit for bit
    with np.errstate(divide="ignore", invalid="ignore"):
        v_rev = np.where(reverse, integral(np.divide(1.0, g, out=tmp)) - 1.0, np.nan)
        e_rev = np.where(reverse, -integral(np.log(g, out=tmp)), np.nan)
    values = dict(tv=tv, hellinger=hel, variance=var, entropy=ent, i_psi=i_psi,
                  dissipation=dissipation, v_reverse=v_rev, e_reverse=e_rev,
                  mass=mass, min_h=h_min)
    if not single:
        return Functionals(**values)
    undefined = ((("i_psi", "dissipation") if psi is None else ())
                 + (() if reverse[0] else ("v_reverse", "e_reverse")))
    return Functionals(**{name: None if name in undefined else float(value[0])
                          for name, value in values.items()})


def tv_distance(mu: ProbabilityMeasure1D, h) -> float:
    """Total variation ||h mu - mu||_TV = int |h - 1| dmu, in [0, 2]."""
    return functionals(mu, h).tv


class PinskerCheck:
    def __init__(self, tv: float, rhs: float, holds: bool):
        self.tv, self.rhs, self.holds = tv, rhs, holds


def pinsker_check(mu: ProbabilityMeasure1D, h, psi, c_psi: float) -> PinskerCheck:
    """Check the generalized Pinsker bound tv <= c_psi * sqrt(I_psi)."""
    f = functionals(mu, h, psi)
    rhs = c_psi * math.sqrt(max(f.i_psi, 0.0))
    return PinskerCheck(tv=f.tv, rhs=rhs, holds=bool(f.tv <= rhs + 1e-9))


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
    from scipy.interpolate import PchipInterpolator

    interp = PchipInterpolator(np.asarray(x, float), np.asarray(h, float),
                               extrapolate=True)
    vals = np.maximum(interp(mu.grid), 0.0)
    mass = integrate(mu, vals)
    if mass <= 0:
        raise NotADensity("tabulated density has no mass on the grid")
    return vals / mass
