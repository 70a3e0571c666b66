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


def invert_increasing(fn, y, lo, hi, *, rel_tol=1e-13, resid_tol=1e-9):
    """Solve fn(u) = y for an increasing fn by bisection in log-u space.

    The bracket [lo, hi] (both > 0) is first expanded by factors of 8, at most
    400 times each way, when y falls outside [fn(lo), fn(hi)].  Terminates
    when the relative residual |fn(u) - y| <= resid_tol * max(|y|, tiny) or
    the bracket width drops below rel_tol relatively.
    """
    if not (lo > 0 and hi > lo):
        raise ValueError("need 0 < lo < hi")
    flo, fhi = fn(lo), fn(hi)
    n = 0
    while flo > y and n < 400 and lo > 1e-280:
        hi, fhi = lo, flo
        lo = lo / 8.0
        flo = fn(lo)
        n += 1
    n = 0
    while fhi < y and n < 400 and hi < 1e280:
        lo, flo = hi, fhi
        hi = hi * 8.0
        fhi = fn(hi)
        n += 1
    if flo > y or fhi < y:
        # out of reach even after expansion: return the nearer end
        return lo if abs(flo - y) < abs(fhi - y) else hi
    scale = max(abs(y), 1e-300)
    a, b = np.log(lo), np.log(hi)
    for _ in range(300):
        m = 0.5 * (a + b)
        fm = fn(np.exp(m))
        if abs(fm - y) <= resid_tol * scale:
            return float(np.exp(m))
        if fm < y:
            a = m
        else:
            b = m
        if (b - a) <= rel_tol:
            break
    return float(np.exp(0.5 * (a + b)))


def golden_min_log(fn, lo, hi):
    """Golden-section minimum of fn over [lo, hi] searched in log-argument.

    Returns (argmin, min).  fn is assumed unimodal-ish on the log scale; use
    scan_min_log for a multistart wrapper when that is not guaranteed.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = np.log(lo), np.log(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(np.exp(c)), fn(np.exp(d))
    while (b - a) > 1e-10:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(np.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(np.exp(d))
    x = np.exp(0.5 * (a + b))
    return float(x), float(fn(x))


def scan_min_log(fn, lo, hi, *, n_scan=64):
    """Coarse log-spaced scan followed by golden refinement in the best cells."""
    xs = np.geomspace(lo, hi, n_scan)
    vals = np.array([fn(x) for x in xs])
    order = np.argsort(vals)[:3]
    best_x, best_v = xs[order[0]], vals[order[0]]
    for i in order:
        a = xs[max(i - 1, 0)]
        b = xs[min(i + 1, n_scan - 1)]
        if b <= a:
            continue
        x, v = golden_min_log(fn, a, b)
        if v < best_v:
            best_x, best_v = x, v
    return float(best_x), float(best_v)


def scan_sup(xs: np.ndarray, vals: np.ndarray):
    """(sup, argmax) of sampled values, ignoring non-finite ones; (nan, nan)
    when none is finite."""
    vals = np.asarray(vals, dtype=float)
    finite = np.isfinite(vals)
    if not finite.any():
        return float("nan"), float("nan")
    i = int(np.nanargmax(np.where(finite, vals, -np.inf)))
    return float(vals[i]), float(xs[i])


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
