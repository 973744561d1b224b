"""Shared numerics: finite-difference step, scalar/array call, golden max."""

from __future__ import annotations

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
_FLOAT = np.dtype(float)


def fd_step(x):
    """Finite-difference step max(1e-6, 1e-6 |x|) at x."""
    return np.maximum(1e-6, 1e-6 * np.abs(x))


def central_diff(f, x):
    """f'(x) by a central difference with step fd_step(x)."""
    h = fd_step(x)
    return (f(x + h) - f(x - h)) / (2 * h)


def scalar_or_array(fn, x, *args):
    """fn(xs, *args) on x as a float array of at least one dimension; a
    Python float back for a scalar x, fn's float array of xs's shape
    otherwise: the return contract of every function of the state the
    package builds."""
    # a float64 array goes to fn as it is; numpy keeps one float64
    # descriptor, so testing it by identity is the cheapest check
    if type(x) is np.ndarray and x.ndim and x.dtype is _FLOAT:
        return fn(x, *args)
    xs = np.asarray(x, dtype=float)
    out = fn(np.atleast_1d(xs), *args)
    return float(out[0]) if xs.ndim == 0 else out


def golden_max_lanes(f, lo, hi, xtol, max_iter=160):
    """Lockstep golden-section maximization over many independent lanes.

    ``f(x, idx)`` evaluates lane ``idx[k]`` at ``x[k]`` for numpy arrays;
    each lane has its own bracket.  Returns per-lane (x, f(x)).  Keeps the
    number of vectorized evaluations at one per iteration, which matters
    when a single evaluation is quadrature-priced.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    all_idx = np.arange(lo.size)
    h = hi - lo
    x1 = lo + _INVPHI2 * h
    x2 = lo + _INVPHI * h
    f1 = f(x1, all_idx)
    f2 = f(x2, all_idx)
    xtol = np.broadcast_to(np.asarray(xtol, dtype=float), lo.shape)
    for _ in range(max_iter):
        act = np.flatnonzero(h > xtol)
        if not act.size:
            break
        to_left = f1[act] >= f2[act]
        left, right = act[to_left], act[~to_left]
        hi[left], x2[left], f2[left] = x2[left], x1[left], f1[left]
        lo[right], x1[right], f1[right] = x1[right], x2[right], f2[right]
        h[act] = hi[act] - lo[act]
        x1[left] = lo[left] + _INVPHI2 * h[left]
        x2[right] = lo[right] + _INVPHI * h[right]
        vals = f(np.concatenate([x1[left], x2[right]]),
                 np.concatenate([left, right]))
        f1[left], f2[right] = vals[:left.size], vals[left.size:]
    xs = np.where(f1 >= f2, x1, x2)
    fs = np.maximum(f1, f2)
    return xs, fs
