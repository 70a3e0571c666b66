"""Shared low-level numerics: quadrature weights, monotone inversion, sups.

Everything here is plumbing; the mathematical content lives in the public
modules that call these helpers.  The searches take arrays, one independent
search per entry, and return only the values their callers read.
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


def bisect_log(f, y, a, b, tol, width):
    """Halve the log-argument brackets [a, b], one per target y, until
    |f(m) - y| <= tol at the midpoint m (a hit, which sets b = m) or
    b - a <= width, at most 300 times.  f maps an array of log-arguments to
    values increasing in them and is called on the entries still searching,
    each dropped as it stops.  Returns the final (a, b, hit) arrays."""
    hit = np.zeros(y.shape, dtype=bool)
    a, b = a.copy(), b.copy()
    i, ai, bi = np.arange(y.size), a, b
    for _ in range(300):
        if not i.size:
            break
        m = 0.5 * (ai + bi)
        fm = f(m)
        h = np.abs(fm - y) <= tol
        up = ~h & (fm < y)
        ai, bi = np.where(up, m, ai), np.where(up, bi, m)
        done = h | (bi - ai <= width)
        if done.any():
            j = i[done]
            a[j], b[j], hit[j] = ai[done], bi[done], h[done]
            i, ai, bi, y, tol = (v[~done] for v in (i, ai, bi, y, tol))
    a[i], b[i] = ai, bi
    return a, b, hit


def invert_increasing(fn, y, lo, hi, *, resid_tol=1e-9):
    """Solve fn(u) = y for an increasing fn by bisection in log-u space.

    y is an array, and an array of its shape is returned; fn is called on
    1-D arrays of the entries still searching, so it must act elementwise.
    Each entry's bracket [lo, hi] (both > 0) is first expanded by factors of
    8, at most 400 times each way, when y falls outside [fn(lo), fn(hi)].
    Terminates when the relative residual |fn(u) - y| <= resid_tol *
    max(|y|, tiny) or the bracket width drops below 1e-13 relatively; an
    entry out of reach even after expansion gets the nearer end.
    """
    if not (lo > 0 and hi > lo):
        raise ValueError("need 0 < lo < hi")
    y = np.asarray(y, dtype=float)
    ys = y.reshape(-1)
    lo, hi = np.full(ys.shape, float(lo)), np.full(ys.shape, float(hi))
    flo, fhi = fn(lo), fn(hi)
    for _ in range(400):
        i = np.flatnonzero((flo > ys) & (lo > 1e-280))
        if not i.size:
            break
        hi[i], fhi[i] = lo[i], flo[i]
        lo[i] /= 8.0
        flo[i] = fn(lo[i])
    for _ in range(400):
        i = np.flatnonzero((fhi < ys) & (hi < 1e280))
        if not i.size:
            break
        lo[i], flo[i] = hi[i], fhi[i]
        hi[i] *= 8.0
        fhi[i] = fn(hi[i])
    # out of reach: the nearer end; else bisect: m on a hit (b = m), else the
    # midpoint
    u = np.where(np.abs(flo - ys) < np.abs(fhi - ys), lo, hi)
    i = np.flatnonzero(~((flo > ys) | (fhi < ys)))
    yi = ys[i]
    a, b, hit = bisect_log(lambda m: fn(np.exp(m)), yi, np.log(lo[i]), np.log(hi[i]),
                           resid_tol * np.maximum(np.abs(yi), 1e-300), 1e-13)
    u[i] = np.exp(np.where(hit, b, 0.5 * (a + b)))
    return u.reshape(y.shape)


def golden_min_log(fn, lo, hi):
    """Golden-section minimum of fn over [lo, hi] searched in log-argument.

    lo and hi are arrays, one independent search per entry; fn is called on
    arrays of their shape and the minimum values, an array of that shape,
    are returned.  fn is assumed unimodal-ish on the log scale; use
    scan_min_log for a multistart wrapper when that is not guaranteed.
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
    return fn(np.exp(0.5 * (a + b)))


def scan_min_log(fn, lo, hi, *, n_scan):
    """Coarse log-spaced scan followed by golden refinement in the best cells.

    fn maps an array of arguments (the n_scan-point grid, then the three
    refinement cells) to values of shape (..., n), one row per independent
    problem, so that fn can broadcast a batch of problems against the
    arguments.  Returns the minimum values, an array of the leading shape.
    """
    xs = np.geomspace(lo, hi, n_scan)
    vals = np.asarray(fn(xs), dtype=float)
    order = np.argsort(vals, axis=-1)[..., :3]
    best = np.take_along_axis(vals, order[..., :1], axis=-1)[..., 0]
    a = xs[np.maximum(order - 1, 0)]
    b = xs[np.minimum(order + 1, n_scan - 1)]
    v = golden_min_log(fn, a, b)
    for k in range(order.shape[-1]):
        best = np.where((b[..., k] > a[..., k]) & (v[..., k] < best), v[..., k], best)
    return best


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
