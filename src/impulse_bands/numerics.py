"""Shared numerics: finite-difference step, scalar/array call, lockstep
bracketed root-finding."""

from __future__ import annotations

import numpy as np

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


def bracket_roots(f, lo, hi, ftol, xtol, max_iter=200):
    """Lockstep bracketed root-finding over many independent lanes.

    ``f(x, idx)`` evaluates lane ``idx[k]`` at ``x[k]`` for numpy arrays and
    returns a 2-D array: row 0 holds the function whose sign change is
    sought, any further rows values carried to the result.  The first call
    prices both ends of every bracket [lo, hi]; after it, each iteration is
    one call over the lanes still open, which matters when a single
    evaluation is expensive.

    A lane steps by false position with the Illinois rule (the value at an
    end kept for a second step in a row is halved), and bisects instead
    when its bracket did not halve over its last two steps.  It stops once
    |f| <= ftol at an end of its bracket, or the bracket is at most xtol
    wide or too narrow to split in floating point; so a jump of f across
    zero ends at the jump, within xtol.  Both tolerances may be per lane.

    Returns (x, rows): each lane's bracket end of smaller |f| and f's rows
    there.  A lane whose bracket shows no sign change, f of one sign at
    both ends, is not iterated, and a lane at which f turns NaN stops; both
    come back as NaN in x and in every row.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    n = lo.size
    ends = f(np.concatenate([lo, hi]), np.tile(np.arange(n), 2))
    at_lo, at_hi = ends[:, :n].copy(), ends[:, n:].copy()
    f_lo, f_hi = at_lo[0], at_hi[0]      # views, updated with the rows
    ftol = np.broadcast_to(np.asarray(ftol, dtype=float), lo.shape)
    xtol = np.broadcast_to(np.asarray(xtol, dtype=float), lo.shape)

    failed = ~(np.sign(f_lo) * np.sign(f_hi) <= 0.0)   # none, or NaN
    w_lo, w_hi = f_lo.copy(), f_hi.copy()   # Illinois-weighted values
    kept = np.zeros(n, dtype=int)        # end kept last step: -1 lo, 1 hi
    widths = [np.full(n, np.inf)] * 2 + [hi - lo]   # two steps ago .. now
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        open_ = ~failed & (np.minimum(np.abs(f_lo), np.abs(f_hi)) > ftol) \
            & (hi - lo > xtol) & (lo < mid) & (mid < hi)
        act = np.flatnonzero(open_)
        if not act.size:
            break
        a, b, mid = lo[act], hi[act], mid[act]
        with np.errstate(divide="ignore", invalid="ignore"):
            x = b - w_hi[act] * (b - a) / (w_hi[act] - w_lo[act])
        bisect = ~((x > a) & (x < b)) | (widths[2][act] > 0.5 * widths[0][act])
        x = np.where(bisect, mid, x)
        rows = f(x, act)
        fx = rows[0]
        failed[act[np.isnan(fx)]] = True
        # x replaces the end whose sign it shares
        to_lo = np.sign(fx) == np.sign(f_lo[act])
        i_lo, i_hi = act[to_lo], act[~to_lo]
        lo[i_lo], at_lo[:, i_lo], w_lo[i_lo] = x[to_lo], rows[:, to_lo], \
            fx[to_lo]
        hi[i_hi], at_hi[:, i_hi], w_hi[i_hi] = x[~to_lo], rows[:, ~to_lo], \
            fx[~to_lo]
        w_hi[i_lo[kept[i_lo] == 1]] *= 0.5
        w_lo[i_hi[kept[i_hi] == -1]] *= 0.5
        kept[i_lo], kept[i_hi] = 1, -1
        widths = widths[1:] + [hi - lo]
    use_lo = np.abs(f_lo) < np.abs(f_hi)
    x = np.where(use_lo, lo, hi)
    rows = np.where(use_lo, at_lo, at_hi)
    x[failed] = np.nan
    rows[:, failed] = np.nan
    return x, rows
