"""Fokker-Planck evolution of densities h relative to mu, plus the exact
Ornstein-Uhlenbeck kernel oracle.

The flow is d/dt h = L h with L the discrete generator `measures.generator`:
L h = (1/2) e^{2V} (e^{-2V} h')' in divergence form with harmonic-mean face
weights and zero-flux boundaries, so it annihilates constants identically,
conserves the mu-weighted mass exactly and is self-adjoint in l^2(mu).
Implicit Euler is an M-matrix scheme, which preserves positivity and every
Jensen-type monotone functional (TV, Var, Ent, I_psi, d_H, V, E) step by
step.  That holds exactly across save gaps of at most 64 steps, which run
every step; a longer gap is crossed from the previous save in 40 solves by a
Chebyshev series in the step's resolvent, whose states are implicit Euler's to
round-off, clipped at 0.  The spectral scheme crosses every save gap with the
same series of e^{-x}: it runs L exactly in time, to a round-off that adds up
over the gaps, within 8 eps ||h0||_{L^2(mu)} per gap.
"""

from __future__ import annotations

import math
import operator
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from typing import Optional

import numpy as np

from .errors import LowerBoundViolated, NotADensity, SolverBreakdown, WrongMeasure
from .measures import (BlockWorkspace, Functionals, ProbabilityMeasure1D, _check_density,
                       _finite, functionals, generator, integrate)
from ._numerics import trapezoid_weights

# Saved states are diagnosed in blocks of about this many grid values (256 KB
# per array of the block workspace).  On a warm save-every-step evolve at
# n = 1001 (power1 and gaussian, 2 CPUs), 2^15 was the fastest of 2^12 ... 2^17.
_BLOCK_ELEMS = 2 ** 15

# Implicit Euler crosses a save gap of more than this many steps with its
# 40-solve series.  A term of the series is a solve and four vector passes, so
# one gap costs as much as 58-59 direct steps at n = 4001, 63-73 at 2001,
# 74-85 at 1001 and 98-118 at 401 (2 CPUs, one BLAS thread): above 64 steps the
# series is faster from the default n = 4001 up, and the default gap of 50 steps
# stays direct.
_SERIES_GAP = 64

# scipy's f2py LAPACK wrappers, which `scipy.linalg.lapack` re-exports.
_FLAPACK = "scipy.linalg._flapack"


class SimConfig:
    def __init__(self, dt: float, t_end: float, scheme: str = "implicit_euler",
                 save_every: int = 1):
        self.dt, self.t_end, self.scheme = dt, t_end, scheme
        if not (dt > 0):
            raise ValueError("dt must be positive")
        if not (math.isfinite(t_end) and t_end >= dt):
            raise ValueError("t_end must be finite and at least dt")
        steps = t_end / dt
        if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9 * steps):
            raise ValueError(f"t_end = {t_end!r} is not a whole number of dt = {dt!r} steps")
        if steps > sys.maxsize:
            raise ValueError(f"t_end / dt = {steps:g} steps is more than sys.maxsize")
        try:
            self.save_every = operator.index(save_every)
        except TypeError:
            raise ValueError(f"save_every must be an integer, got {save_every!r}") from None
        if self.save_every < 1:
            raise ValueError("save_every must be >= 1")
        if scheme not in FLOWS:
            raise ValueError(f"unknown scheme {scheme!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)


class DiagnosticsSeries(Functionals):
    """Per-save functionals along a run: each `Functionals` field holds one
    array over the saves, with nan where a save's value is None.
    dissipation_lhs is the centered time difference of I_psi; the flow
    identity reads lhs = -dissipation."""

    def __init__(self, tv, hellinger, variance, entropy, i_psi, dissipation, v_reverse,
                 e_reverse, mass, min_h, times: np.ndarray, dissipation_lhs: np.ndarray,
                 reverse_transformed: bool = False, states: Optional[list] = None):
        super().__init__(tv, hellinger, variance, entropy, i_psi, dissipation, v_reverse,
                         e_reverse, mass, min_h)
        self.times, self.dissipation_lhs = times, dissipation_lhs
        self.reverse_transformed, self.states = reverse_transformed, states


def _flapack():
    """scipy's LAPACK extension module, loaded without `scipy.linalg`, whose
    package `__init__` loads the whole of scipy.linalg: most of a short
    simulate run.  The extension file is found in scipy's linalg directory,
    located by `find_spec` without running the `scipy` package's `__init__`
    either; its routines are the objects `scipy.linalg.lapack` re-exports.
    If scipy or the file is not found, that import is the fallback.
    """
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    package = find_spec("scipy")
    spec = None
    if package is not None and package.submodule_search_locations:
        finder = FileFinder(os.path.join(package.submodule_search_locations[0], "linalg"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(_FLAPACK)
    if spec is None:
        from scipy.linalg import lapack
        return lapack
    module = module_from_spec(spec)
    sys.modules[_FLAPACK] = module
    spec.loader.exec_module(module)
    return module


def _step_solver(q, upper, dt):
    """Factor the implicit Euler step once and return solve(rhs, steps=1,
    out=None), which applies (I - dt*L)^{-1} to rhs `steps` times, in place
    in `out` (a new array if None, rhs allowed), bit for bit as `steps`
    one-step calls would.  Each step is one dpttrs solve of S x = q*rhs,
    q = mu.quadrature, with S = Q(I - dt*L) symmetric positive definite and
    factored once by dpttrf: its faces are -c_i, c_i = dt*q_i*upper_i, and
    its diagonal q_i + c_{i-1} + c_i makes every column sum q_i up to about
    eps*dt*upper_i relative, the mass a step may move (2.8e-14 on a steep
    tabulated grid, n = 314, dt = 0.06).  A cell whose q underflows carries no
    mass and takes weight 1, which keeps S definite and h there all but unchanged.
    """
    lapack = _flapack()
    dpttrf, dpttrs = lapack.dpttrf, lapack.dpttrs

    c = dt * q[:-1] * upper[:-1]
    w = np.where(q < np.finfo(float).tiny, 1.0, q)
    d = w.copy()
    d[:-1] += c
    d[1:] += c
    if not np.isfinite(d).all():    # every c_i and q_i enters d
        raise SolverBreakdown("the implicit step matrix Q(I - dt*L) is not finite")
    d, e, info = dpttrf(d, -c)
    if info != 0:
        raise SolverBreakdown(f"the implicit step matrix Q(I - dt*L) is not positive "
                              f"definite (dpttrf info = {info})")

    def solve(rhs, steps=1, out=None):
        if not _finite(rhs):
            raise SolverBreakdown("the implicit step right-hand side is not finite")
        x = np.multiply(w if steps else 1.0, rhs, out=out)    # 0 steps: a copy of rhs
        for step in range(steps):
            if step:
                x *= w
            x, info = dpttrs(d, e, x, overwrite_b=1)
            if info != 0:
                raise SolverBreakdown(
                    f"the implicit step solve failed (dpttrs info = {info})")
        return x
    return solve


_THETA = np.pi * (np.arange(41) + 0.5) / 41


def _cheb_table(f):
    """c_0 ... c_40 of the series sum_k c_k T_k(2/(1 + x/10) - 1) that
    interpolates f(x), x in [0, inf), at the 41 Chebyshev points `_THETA`."""
    c = np.cos(np.outer(np.arange(41), _THETA)) @ f(20 / (np.cos(_THETA) + 1) - 10) / 20.5
    c[0] /= 2
    return c


# sim.scheme -> (its name in messages, the longest save gap run step by step,
# k -> the f_k(x) whose series crosses a longer gap of k steps).  Implicit
# Euler's k steps are (1 + x/k)^{-k}, whose k -> inf limit e^{-x} is the exact
# flow; on [0, inf) both tables are within 4e-15 of f (Saff, Schonhage & Varga,
# Numer. Math. 25 (1976): one real pole), with sum |c_k| <= 1.0016.
FLOWS = {"implicit_euler": ("implicit Euler", _SERIES_GAP,
                            lambda k: lambda x: np.exp(-k * np.log1p(x / k))),
         "spectral": ("spectral", 0, lambda k: lambda x: np.exp(-x))}


def evolve(mu: ProbabilityMeasure1D, h0, config: SimConfig,
           psi=None, keep_states: bool = False) -> DiagnosticsSeries:
    """Run the scheme's `FLOWS` row from h0 and record one `Functionals` at
    steps 0, save_every, ..., n_steps.

    Each save is made from the last: a gap of 0 steps copies it, and a gap of
    at most the row's direct length is one `solve` that runs its steps.  A
    longer gap of k steps is sum_j c_j T_j(Y) h, c the `_cheb_table` of f_k
    and Y = 2V - I, V = (I - (k dt/10) L)^{-1}, so x = k dt lambda for an
    eigenvalue -lambda of L.  Clenshaw's recurrence sums it in 40 solves; the
    state is rescaled to h's mass, checked finite and clipped at 0, raising
    SolverBreakdown if that clips more than max(1e-12, 16 eps ||h0||_{L^2(mu)}),
    and a cell whose q underflows keeps h.  Each step length is factored
    once, when a gap first solves with it, and each table made once per gap
    length.  The saves fill the rows of one `BlockWorkspace`; one
    `functionals` call diagnoses each block once its last state is checked
    finite (a nan or inf spreads through `solve`).  When min h0 < 1/2 the
    reversed functionals are those of the mixture flow (1 + h_t)/2.
    """
    # h0 clipped at 0, in a fresh array: the state buffer
    h = _check_density(mu, BlockWorkspace(mu, h0))[0][0]
    dt, n_steps = config.dt, round(config.t_end / config.dt)
    name, direct, f = FLOWS[config.scheme]
    q, upper = mu.quadrature, generator(mu)[2]
    dead = q < np.finfo(float).tiny
    limit = max(1e-12, 16.0 * np.finfo(float).eps * float(np.linalg.norm(np.sqrt(q) * h)))
    transformed = bool(h.min() < 0.5 - 1e-12)
    steps = [*range(0, n_steps, config.save_every), n_steps]
    ws = BlockWorkspace(mu, np.empty((max(1, _BLOCK_ELEMS // len(h)), len(h))))
    blocks, states, solvers, tables, done = [], [] if keep_states else None, {}, {}, 0
    for first in range(0, len(steps), len(ws.block)):
        block_steps = steps[first:first + len(ws.block)]
        ws.filled = len(block_steps)
        for row, k in zip(ws.block, block_steps):
            gap, done = k - done, k
            if not gap:
                row[:] = h
                continue
            step = dt if gap <= direct else gap * dt / 10
            if step not in solvers:
                solvers[step] = _step_solver(q, upper, step)
            solve = solvers[step]
            if gap <= direct:
                row[:] = solve(h, gap, out=h)
                continue
            if gap not in tables:
                tables[gap] = _cheb_table(f(gap))
            table, mass, t = tables[gap], q @ h, k * dt
            # b_j = c_j h + 2 Y b_{j+1} - b_{j+2} = ((c_j h + 4 V b_{j+1}) - 2 b_{j+1}) - b_{j+2},
            # rounded in that order, in three rotating buffers and a scratch one
            b0, b1, b2, tmp = np.empty_like(h), table[-1] * h, np.zeros_like(h), np.empty_like(h)
            for c in table[-2:0:-1]:
                b0 = solve(b1, out=b0)
                b0 *= 4.0
                b0 += np.multiply(c, h, out=tmp)
                b0 -= np.multiply(2.0, b1, out=tmp)
                b0 -= b2
                b0, b1, b2 = b2, b0, b1
            solve(b1, out=row)
            row *= 2.0
            row += np.multiply(table[0], h, out=tmp)
            row -= b1
            row -= b2
            row *= mass / (q @ row)     # the solves' round-off moves the mass
            if not _finite(row):
                raise SolverBreakdown(f"the {name} flow at t = {t:g} is not finite")
            row[dead] = h[dead]
            negative = -(np.minimum(row, 0.0) @ q)
            if negative > limit:
                raise SolverBreakdown(f"the {name} flow at t = {t:g} has negative "
                                      f"mass {negative:.2e}")
            np.maximum(row, 0.0, out=row)
            h[:] = row
        if not _finite(ws.block[ws.filled - 1]):
            raise SolverBreakdown(f"the flow at t = {block_steps[-1] * dt:g} is not finite")
        if keep_states:
            states.extend(ws.block[:ws.filled].copy())
        blocks.append(functionals(mu, ws, psi=psi, mixture=transformed))
    times = np.asarray(steps) * dt
    series = {field: np.concatenate([getattr(b, field) for b in blocks])
              for field in Functionals.NAMES}
    i_psi, lhs = series["i_psi"], np.full_like(times, np.nan, dtype=float)
    if len(times) >= 3 and psi is not None:
        lhs[1:-1] = (i_psi[2:] - i_psi[:-2]) / (times[2:] - times[:-2])
    return DiagnosticsSeries(times=times, **series, dissipation_lhs=lhs,
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
        raise NotADensity(f"kernel quadrature found mass {mass:.3g}, not 1")
    return out


# ---------------------------------------------------------------------------
# Reversed-role diagnostics
# ---------------------------------------------------------------------------

class ReverseDiagnostics:
    def __init__(self, times: np.ndarray, V: np.ndarray, E: np.ndarray, v_monotone: bool,
                 e_monotone: bool):
        self.times, self.V, self.E = times, V, E
        self.v_monotone, self.e_monotone = v_monotone, e_monotone


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
