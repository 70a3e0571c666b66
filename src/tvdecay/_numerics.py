"""Shared low-level numerics: quadrature weights, monotone inversion, sups.

Everything here is plumbing; the mathematical content lives in the public
modules that call these helpers.
"""

from __future__ import annotations

import numpy as np


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    """Composite-trapezoid quadrature weights for an arbitrary 1-D grid."""
    w = np.zeros_like(grid)
    dx = np.diff(grid)
    w[:-1] += 0.5 * dx
    w[1:] += 0.5 * dx
    return w


def cumtrapz0(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integral of y over x, starting at 0."""
    out = np.zeros_like(y, dtype=float)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


def invert_increasing(fn, y, lo, hi, *, resid_tol=1e-9):
    """Solve fn(u) = y for an increasing fn by bisection in log-u space.

    y may be a scalar (a float is returned, and fn is called on scalars) or an
    array (an array of its shape is returned, and fn is called on 1-D arrays
    of the entries still searching, so it must act elementwise).  Each entry
    runs the scalar search: the bracket [lo, hi] (both > 0) is first expanded
    by factors of 8, at most 400 times each way, when y falls outside
    [fn(lo), fn(hi)].  Terminates when the relative residual
    |fn(u) - y| <= resid_tol * max(|y|, tiny) or the bracket width drops below
    1e-13 relatively; an entry out of reach even after expansion gets the
    nearer end.
    """
    if not (lo > 0 and hi > lo):
        raise ValueError("need 0 < lo < hi")
    y = np.asarray(y, dtype=float)
    ys = y.reshape(-1)

    def f(u):
        return np.asarray(fn(u if y.ndim else u[0]), dtype=float).reshape(-1)

    lo, hi = np.full(ys.shape, float(lo)), np.full(ys.shape, float(hi))
    flo, fhi = f(lo), f(hi)
    for _ in range(400):
        i = np.flatnonzero((flo > ys) & (lo > 1e-280))
        if not i.size:
            break
        hi[i], fhi[i] = lo[i], flo[i]
        lo[i] /= 8.0
        flo[i] = f(lo[i])
    for _ in range(400):
        i = np.flatnonzero((fhi < ys) & (hi < 1e280))
        if not i.size:
            break
        lo[i], flo[i] = hi[i], fhi[i]
        hi[i] *= 8.0
        fhi[i] = f(hi[i])
    # out of reach: the nearer end; else bisect, dropping each entry as it stops
    u = np.where(np.abs(flo - ys) < np.abs(fhi - ys), lo, hi)
    i = np.flatnonzero(~((flo > ys) | (fhi < ys)))
    yi = ys[i]
    tol = resid_tol * np.maximum(np.abs(yi), 1e-300)
    a, b = np.log(lo[i]), np.log(hi[i])
    for _ in range(300):
        if not i.size:
            break
        m = 0.5 * (a + b)
        fm = f(np.exp(m))
        hit = np.abs(fm - yi) <= tol
        up = ~hit & (fm < yi)
        a, b = np.where(up, m, a), np.where(up, b, m)
        done = hit | ((b - a) <= 1e-13)
        if done.any():
            u[i[done]] = np.exp(np.where(hit, m, 0.5 * (a + b))[done])
            i, a, b, yi, tol = (v[~done] for v in (i, a, b, yi, tol))
    u[i] = np.exp(0.5 * (a + b))
    return float(u[0]) if y.ndim == 0 else u.reshape(y.shape)


def golden_min_log(fn, lo, hi):
    """Golden-section minimum of fn over [lo, hi] searched in log-argument.

    Returns (argmin, min): floats for scalar lo, hi (fn is then called on
    scalars), else arrays of their shape, with fn called on arrays of that
    shape and every entry running the scalar search.  fn is assumed
    unimodal-ish on the log scale; use scan_min_log for a multistart wrapper
    when that is not guaranteed.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = np.log(lo), np.log(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(np.exp(c)), fn(np.exp(d))
    while True:
        live = (b - a) > 1e-10
        if not np.any(live):
            break
        left = live & (fc < fd)
        right = live & ~(fc < fd)
        # left: (b, d, fd) <- (d, c, fc) and a new c; right: (a, c, fc) <-
        # (c, d, fd) and a new d
        b, d, fd = np.where(left, d, b), np.where(left, c, d), np.where(left, fc, fd)
        a, c, fc = np.where(right, c, a), np.where(right, d, c), np.where(right, fd, fc)
        probe = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        fp = fn(np.exp(probe))
        c, fc = np.where(left, probe, c), np.where(left, fp, fc)
        d, fd = np.where(right, probe, d), np.where(right, fp, fd)
    x = np.exp(0.5 * (a + b))
    v = fn(x)
    return (float(x), float(v)) if np.ndim(x) == 0 else (x, v)


def scan_min_log(fn, lo, hi, *, n_scan=64):
    """Coarse log-spaced scan followed by golden refinement in the best cells.

    fn maps an array of arguments (the n_scan-point grid, then the three
    refinement cells) to values of shape (..., n), one row per independent
    problem, so that fn can broadcast a batch of problems against the
    arguments.  Returns (argmin, min): floats when fn returns a 1-D scan,
    else arrays of the leading shape.
    """
    xs = np.geomspace(lo, hi, n_scan)
    vals = np.asarray(fn(xs), dtype=float)
    order = np.argsort(vals, axis=-1)[..., :3]
    best_x = xs[order[..., 0]]
    best_v = np.take_along_axis(vals, order[..., :1], axis=-1)[..., 0]
    a = xs[np.maximum(order - 1, 0)]
    b = xs[np.minimum(order + 1, n_scan - 1)]
    x, v = golden_min_log(fn, a, b)
    for k in range(order.shape[-1]):
        better = (b[..., k] > a[..., k]) & (v[..., k] < best_v)
        best_x = np.where(better, x[..., k], best_x)
        best_v = np.where(better, v[..., k], best_v)
    if vals.ndim == 1:
        return float(best_x), float(best_v)
    return best_x, best_v


def scan_sup(vals: np.ndarray) -> float:
    """The sup of sampled values, ignoring non-finite ones; nan when none is
    finite."""
    vals = np.asarray(vals, dtype=float)
    finite = vals[np.isfinite(vals)]
    return float(finite.max()) if finite.size else float("nan")


def fit_log_slope(t: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log(y) against t (y must be positive)."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = y > 0
    t, y = t[keep], np.log(y[keep])
    A = np.vstack([t, np.ones_like(t)]).T
    slope, _ = np.linalg.lstsq(A, y, rcond=None)[0]
    return float(slope)


def fit_loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log(y) against log(x)."""
    return fit_log_slope(np.log(np.asarray(x, dtype=float)), y)
