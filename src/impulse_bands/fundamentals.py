"""Fundamental solution pairs (psi, phi) of (A - alpha)u = 0.

psi is the increasing and phi the decreasing positive solution of

    (sigma^2/2) u'' + mu u' - alpha u = 0

on the state interval.  The ratio F = psi/phi is the strictly increasing
coordinate change in which stopping values become concave majorants.  A
closed-form catalog covers standard Brownian motion (including the
zero-discount case with an absorbing left endpoint) and the
Ornstein-Uhlenbeck process, whose pair is built from parabolic cylinder
functions evaluated through the Hermite-function integral

    Hermite(nu, z) = (1/Gamma(-nu)) * int_0^inf exp(-t^2 - 2 t z) t^(-nu-1) dt

for nu < 0.  Everything else is integrated numerically, each branch once in
the direction where it dominates, on the state (log u, u'/u), which never
needs rescaling; alpha = 0 takes the same route.  Both the OU and the
numeric pair read psi and phi from one kind of log-space Chebyshev table,
built once over the pair window; the quadrature or the ODE solution prices
its nodes and stays the exact evaluator of the derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (CatalogMissError, ImpulseError, SolverError,
                     ValidationError)
from .numerics import scalar_or_array

__all__ = [
    "FundamentalPair",
    "analytic_fundamentals",
    "numeric_fundamentals",
    "hermite_fn",
    "parabolic_cylinder",
]

# Gauss 7 / Kronrod 15 nodes and weights on [-1, 1]
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_GAUSS_IDX = np.arange(1, 15, 2)
_Z_BLOCK = 256


def _hermite_integral(p, zs, abs_tol, rel_tol, max_panels=512):
    """int_0^inf exp(-t^2 - 2 t z) t^(p-1) dt for each z in flat zs, p > 0.

    The substitution t = u^(1/p) absorbs the endpoint singularity exactly;
    the transformed integrand is then handled by adaptive Gauss-Kronrod
    panels, initially split at the integrand mode.  Each refinement pass
    splits, in one vectorized evaluation, every panel whose error exceeds
    an equal share of the tolerance; if no panel did, the total would pass.
    """
    t_peak = np.maximum(0.0, -zs)
    if zs.size > 1 and float(np.ptp(t_peak)) > 2.0:
        # heterogeneous peak locations need their own panel sets: bucket
        # by peak position and integrate each bucket separately
        order = np.argsort(t_peak)
        out = np.empty_like(zs)
        start = 0
        while start < zs.size:
            stop = start + 1
            base = t_peak[order[start]]
            while stop < zs.size and t_peak[order[stop]] - base <= 2.0:
                stop += 1
            sel = order[start:stop]
            out[sel] = _hermite_integral(p, zs[sel], abs_tol, rel_tol,
                                         max_panels)
            start = stop
        return out
    if zs.size > _Z_BLOCK:
        # fixed-size blocks keep the (panels, 15, z) temporaries small
        return np.concatenate([
            _hermite_integral(p, zs[i:i + _Z_BLOCK], abs_tol, rel_tol,
                              max_panels)
            for i in range(0, zs.size, _Z_BLOCK)])
    t_max = float(np.max(t_peak)) + 9.5
    u_max = t_max ** p
    inv_p = 1.0 / p

    def panels(a, b):
        # kronrod sums and error estimates, shape (panels, z); an overflow
        # makes a NaN error, which ends in the panel cap's ImpulseError
        half = 0.5 * (b - a)
        t = (a[:, None] + half[:, None] * (_XK + 1.0)) ** inv_p
        with np.errstate(over="ignore", invalid="ignore"):
            g = np.exp(-(t * t)[:, :, None] - 2.0 * t[:, :, None] * zs)
            k15 = half[:, None] * (_WK @ g)
            g7 = half[:, None] * (_WG @ g[:, _GAUSS_IDX])
            return k15, np.abs(k15 - g7)

    # initial breakpoints: geometric cluster at 0 plus the global mode
    brk = {0.0, u_max}
    for frac in (1e-6, 1e-4, 1e-2, 0.1, 0.3):
        brk.add(u_max * frac)
    mode = float(np.median(t_peak)) ** p
    if 0.0 < mode < u_max:
        brk.add(mode)
        brk.add(min(u_max, 2.0 * mode))
    edges = np.array(sorted(brk))

    a, b = edges[:-1], edges[1:]
    val, err = panels(a, b)
    while True:
        toterr = err.sum(axis=0)
        tol = abs_tol + rel_tol * np.abs(val.sum(axis=0))
        if np.all(toterr <= tol):
            return val.sum(axis=0)
        if a.size >= max_panels:
            raise ImpulseError(
                "Hermite quadrature did not converge "
                f"(residual {float(np.max(toterr - tol)):.3e})")
        # a NaN error counts as too large, so the panel cap still ends it
        split = ~np.all(err <= tol / a.size, axis=1)
        mid = 0.5 * (a[split] + b[split])
        new_a = np.concatenate([a[split], mid])
        new_b = np.concatenate([mid, b[split]])
        new_val, new_err = panels(new_a, new_b)
        keep = ~split
        a = np.concatenate([a[keep], new_a])
        b = np.concatenate([b[keep], new_b])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])


def hermite_fn(nu, z, abs_tol=1e-12, rel_tol=1e-10):
    """Hermite function of negative degree nu, by adaptive quadrature."""
    if nu >= 0:
        raise ValidationError("hermite_fn requires nu < 0")
    p = -float(nu)
    return scalar_or_array(
        lambda zs: _hermite_integral(p, zs.ravel(), abs_tol, rel_tol)
        .reshape(zs.shape) / (p * math.gamma(p)), z)


def parabolic_cylinder(nu, z):
    """D_nu(z) for nu < 0 via the Hermite-function identity."""
    if nu >= 0:
        raise ValidationError("parabolic_cylinder requires nu < 0")
    return scalar_or_array(
        lambda zs: 2.0 ** (-nu / 2.0) * np.exp(-zs * zs / 4.0)
        * hermite_fn(nu, zs / math.sqrt(2.0)), z)


# ---------------------------------------------------------------------------
# Log-space Chebyshev table
# ---------------------------------------------------------------------------

_CHEB_DEGREE = 40
_CHEB_TAIL_TOL = 1e-13      # last three log coefficients of an accepted piece
_CHEB_MAX_DEPTH = 6         # halvings before a piece keeps the exact evaluator
_CHEB_BLOCK = 2048          # points per barycentric block of a table read
_CHEB_NODES = np.cos(np.pi * np.arange(_CHEB_DEGREE + 1) / _CHEB_DEGREE)
_CHEB_WEIGHTS = (-1.0) ** np.arange(_CHEB_DEGREE + 1)
_CHEB_WEIGHTS[[0, -1]] *= 0.5


def _lobatto_transform(n):
    """Matrix taking values at the n+1 Chebyshev-Lobatto nodes to the
    coefficients of the interpolating Chebyshev series."""
    j = np.arange(n + 1)
    m = (2.0 / n) * np.cos(np.pi * np.outer(j, j) / n)
    m[:, [0, n]] *= 0.5
    m[[0, n], :] *= 0.5
    return m


# node values -> the last three coefficients, the acceptance test of a piece
_CHEB_TAIL = _lobatto_transform(_CHEB_DEGREE)[-3:]


def _barycentric(s, values):
    """Interpolants through the rows of ``values`` at the Lobatto nodes,
    row i read at s[i] in [-1, 1] by the second barycentric formula (stable
    on these nodes).  Row sums, not a matrix product, so that a point's
    value does not depend on how many rows are read with it."""
    diff = s[:, None] - _CHEB_NODES
    hit = diff == 0.0
    diff[hit] = 1.0
    w = _CHEB_WEIGHTS / diff
    out = (w * values).sum(axis=1) / w.sum(axis=1)
    rows, cols = np.nonzero(hit)
    out[rows] = values[rows, cols]
    return out


def _log_chebyshev(exact, lo, hi):
    """``exact`` read from a piecewise Chebyshev interpolant of its log.

    The interpolant is built once on [lo, hi]: a piece starts as the whole
    interval, takes a degree-40 interpolant of log(exact) on its
    Chebyshev-Lobatto nodes and is accepted when the last three
    coefficients are at most 1e-13; otherwise it is halved.  A piece that
    still fails after _CHEB_MAX_DEPTH halvings, or whose nodes cannot be
    priced, keeps ``exact``, as does every point outside [lo, hi]; with no
    accepted piece ``exact`` prices every point.  All pieces of one depth
    are priced in a single call of ``exact``.

    A read finds each point's piece by one search over the sorted piece
    starts and runs the barycentric formula on blocks of _CHEB_BLOCK
    points, so its operation count does not grow with the number of
    pieces.  A point inside a piece gets the same bits whatever batch it
    is read in; a scalar gives a float.
    """
    pieces = []         # (lo, hi, log values at the nodes) of accepted pieces
    pending = [(lo, hi)]
    for depth in range(_CHEB_MAX_DEPTH + 1):
        ends = np.asarray(pending)
        mid = 0.5 * (ends[:, 0] + ends[:, 1])
        half = 0.5 * (ends[:, 1] - ends[:, 0])
        nodes = mid[:, None] + half[:, None] * _CHEB_NODES
        try:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                logs = np.log(exact(nodes.ravel())).reshape(nodes.shape)
        except ImpulseError:
            logs = np.full(nodes.shape, np.nan)
        tails = np.abs(logs @ _CHEB_TAIL.T)
        pending_next = []
        for (p_lo, p_hi), vals, tail in zip(pending, logs, tails):
            if np.all(tail <= _CHEB_TAIL_TOL):
                pieces.append((p_lo, p_hi, vals))
            elif depth < _CHEB_MAX_DEPTH and np.all(np.isfinite(vals)):
                p_mid = 0.5 * (p_lo + p_hi)
                pending_next += [(p_lo, p_mid), (p_mid, p_hi)]
        pending = pending_next
        if not pending:
            break

    pieces.sort(key=lambda piece: piece[0])
    starts = np.array([p_lo for p_lo, _, _ in pieces])
    ends = np.array([p_hi for _, p_hi, _ in pieces])
    sums, widths = starts + ends, ends - starts
    table = np.array([vals for _, _, vals in pieces]).reshape(
        len(pieces), _CHEB_DEGREE + 1)

    def read(xs):
        flat = xs.ravel()
        out = np.empty(flat.shape)
        k = np.searchsorted(starts, flat, side="right") - 1
        inside = k >= 0
        inside[inside] = flat[inside] <= ends[k[inside]]
        idx = np.flatnonzero(inside)
        for i in range(0, idx.size, _CHEB_BLOCK):
            rows = idx[i:i + _CHEB_BLOCK]
            kr = k[rows]
            s = (2.0 * flat[rows] - sums[kr]) / widths[kr]
            out[rows] = np.exp(_barycentric(s, table[kr]))
        if idx.size < flat.size:
            rest = ~inside
            out[rest] = exact(flat[rest])
        return out.reshape(xs.shape)

    return lambda x: scalar_or_array(read, x)


# ---------------------------------------------------------------------------
# Fundamental pair container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FundamentalPair:
    """Evaluators for psi, phi, their derivatives, and F = psi/phi.

    Immutable and pure; safe to share between workers.  ``F_limit_lo`` is
    the limit of F at the left state boundary when known in closed form
    (0 at a natural boundary reached by decaying psi).  ``window`` is the
    interval the pair was built on: the range of the psi/phi table of an OU
    or numeric pair, which for the numeric pair is also the integration
    range; every numeric evaluator raises outside it.  The boundary probes
    march no further than its finite ends.  Every evaluator gives a float
    for a scalar and a float array of the same shape for an array
    (``scalar_or_array``); a tabulated psi or phi also gives a point the
    same value in any batch.
    """

    psi: object
    phi: object
    dpsi: object
    dphi: object
    anchor: float
    provenance: str
    window: tuple
    F_limit_lo: float | None = None

    def F(self, x):
        return self.psi(x) / self.phi(x)

    def wronskian(self, x):
        """psi' phi - psi phi', positive iff F is increasing."""
        return self.dpsi(x) * self.phi(x) - self.psi(x) * self.dphi(x)


# ---------------------------------------------------------------------------
# Closed-form catalog
# ---------------------------------------------------------------------------

def _structure_grid(spec):
    lo = spec.lo if math.isfinite(spec.lo) else -10.0
    hi = spec.hi if math.isfinite(spec.hi) else 10.0
    if not lo < hi:
        lo, hi = -10.0, 10.0
    pad = (hi - lo) / 66
    return np.linspace(lo + pad, hi - pad, 64)


def _match_catalog(spec):
    xs = _structure_grid(spec)
    mu = spec.drift(xs)
    sg = spec.vol(xs)

    if np.max(np.abs(mu)) <= 1e-12 and np.max(np.abs(sg - 1.0)) <= 1e-12:
        return ("bm",)

    sigma0 = float(np.mean(sg))
    if np.max(np.abs(sg - sigma0)) <= 1e-10 * (1.0 + sigma0):
        coef = np.polynomial.polynomial.polyfit(xs, mu, 1)
        fit = coef[0] + coef[1] * xs
        mu_scale = 1.0 + np.max(np.abs(mu))
        if np.max(np.abs(mu - fit)) <= 1e-10 * mu_scale:
            q = float(coef[1])
            # a rounding-level slope (a constant drift) is not OU
            if q * (xs[-1] - xs[0]) < -1e-10 * mu_scale:
                delta = -q
                m = float(coef[0]) / delta
                return ("ou", delta, m, sigma0)
    return None


def _bm_pair(spec):
    s = math.sqrt(2.0 * spec.alpha)

    def psi(x):
        return scalar_or_array(lambda xs: np.exp(s * xs), x)

    def phi(x):
        return scalar_or_array(lambda xs: np.exp(-s * xs), x)

    F_lo = 0.0 if not math.isfinite(spec.lo) else math.exp(2 * s * spec.lo)
    lo = spec.lo if math.isfinite(spec.lo) else -math.inf
    hi = spec.hi if math.isfinite(spec.hi) else math.inf
    return FundamentalPair(
        psi=psi, phi=phi,
        dpsi=lambda x: s * psi(x), dphi=lambda x: -s * phi(x),
        anchor=0.0, provenance="analytic_bm",
        window=(lo, hi), F_limit_lo=F_lo,
    )


def _bm_zero_rate_pair(spec):
    lo = spec.lo

    def one_like(x):
        return scalar_or_array(np.ones_like, x)

    return FundamentalPair(
        psi=lambda x: scalar_or_array(lambda xs: xs - lo, x),
        phi=one_like,
        dpsi=one_like,
        dphi=lambda x: scalar_or_array(np.zeros_like, x),
        anchor=lo + 1.0, provenance="analytic_bm_zero_rate",
        window=(lo, math.inf), F_limit_lo=0.0,
    )


def _ou_pair(spec, delta, m, sigma0):
    nu = -spec.alpha / delta
    if nu >= 0:
        raise CatalogMissError("OU catalog needs alpha > 0")
    root = math.sqrt(2.0 * delta)

    # the table and scalar_or_array pass every evaluator a float array
    def z_of(x):
        return (x - m) / sigma0

    def gauss(z):
        return np.exp(0.5 * delta * z * z)

    def psi(x):
        z = z_of(x)
        return gauss(z) * parabolic_cylinder(nu, -z * root)

    def phi(x):
        z = z_of(x)
        return gauss(z) * parabolic_cylinder(nu, z * root)

    # D'_nu(w) = nu D_(nu-1)(w) - (w/2) D_nu(w) collapses the chain rule to
    # a single lower-order cylinder function
    def dpsi(x):
        z = z_of(x)
        return (root * (-nu) / sigma0) * gauss(z) * parabolic_cylinder(nu - 1.0, -z * root)

    def dphi(x):
        z = z_of(x)
        return (root * nu / sigma0) * gauss(z) * parabolic_cylinder(nu - 1.0, z * root)

    lo = spec.lo if math.isfinite(spec.lo) else -math.inf
    hi = spec.hi if math.isfinite(spec.hi) else math.inf
    win_lo = lo if math.isfinite(lo) else m - 12.0 * sigma0
    win_hi = hi if math.isfinite(hi) else m + 12.0 * sigma0
    # psi and phi are read from a table over the window, built once here;
    # the derivatives are evaluated a handful of times per solve and stay
    # on the quadrature
    return FundamentalPair(
        psi=_log_chebyshev(psi, win_lo, win_hi),
        phi=_log_chebyshev(phi, win_lo, win_hi),
        dpsi=lambda x: scalar_or_array(dpsi, x),
        dphi=lambda x: scalar_or_array(dphi, x),
        anchor=m, provenance="analytic_ou",
        window=(win_lo, win_hi), F_limit_lo=0.0 if not math.isfinite(lo) else None,
    )


def analytic_fundamentals(spec):
    """Closed-form pair for catalog diffusions (BM, OU); raises otherwise.

    Catalog pairs keep their conventional normalization (psi(0) = phi(0) = 1
    for Brownian motion), which fixes the scale of reported slopes.
    """
    match = _match_catalog(spec)
    if match is None:
        raise CatalogMissError("diffusion is not a catalog member")
    if match[0] == "bm":
        if spec.alpha > 0:
            return _bm_pair(spec)
        if spec.absorbing:
            return _bm_zero_rate_pair(spec)
        raise CatalogMissError("zero-discount BM needs an absorbing boundary")
    _, delta, m, sigma0 = match
    return _ou_pair(spec, delta, m, sigma0)


# ---------------------------------------------------------------------------
# Numeric construction by integration in each branch's dominant direction
# ---------------------------------------------------------------------------

def _log_branch(spec, x0, x1, rate0, c, rtol):
    """One positive solution u of the ODE, integrated once from x0 to x1.

    The state is (log u, r = u'/u), which obeys the Riccati equation
    r' = 2 (alpha - mu r) / sigma^2 - r^2; log u grows only linearly, so
    no magnitude ever overflows.  It starts at (0, rate0).  Returns the
    evaluators u and u' = r u, normalized to u(c) = 1, which raise outside
    [min(x0, x1), max(x0, x1)].
    """
    mu, sig, alpha = spec.drift, spec.vol, spec.alpha

    def rhs(x, y):
        r = y[1]
        s2 = sig(x) ** 2
        return [r, 2.0 * (alpha - mu(x) * r) / s2 - r * r]

    sol = solve_ivp(rhs, (x0, x1), [0.0, rate0], method="DOP853",
                    dense_output=True, rtol=rtol, atol=1e-16)
    if not sol.success:
        raise ImpulseError(f"ODE integration failed: {sol.message}")
    dense = sol.sol
    log_c = float(dense(c)[0])
    lo, hi = min(x0, x1), max(x0, x1)

    def state(xs):
        if xs.size == 0:
            return xs, xs
        inside = (xs >= lo - 1e-12) & (xs <= hi + 1e-12)
        if not np.all(inside):
            raise ImpulseError(
                f"x={xs[~inside][0]} outside the constructed window "
                f"[{lo}, {hi}]")
        log_u, r = dense(np.clip(xs.ravel(), lo, hi))
        u = np.exp(log_u - log_c)
        return u.reshape(xs.shape), (r * u).reshape(xs.shape)

    return (lambda x: scalar_or_array(lambda xs: state(xs)[0], x),
            lambda x: scalar_or_array(lambda xs: state(xs)[1], x))


def _wkb_roots(spec, x):
    """Local growth/decay rates: roots of (sigma^2/2) k^2 + mu k - alpha."""
    mu = spec.drift(x)
    s2 = spec.vol(x) ** 2
    if s2 == 0.0:
        raise SolverError(
            f"volatility vanishes at x={x}: the fundamental pair cannot be "
            "built by integrating up to that point")
    disc = math.sqrt(mu * mu + 2.0 * spec.alpha * s2)
    return (-mu + disc) / s2, (-mu - disc) / s2


def _coefficients_ok(spec, xs):
    try:
        sg = spec.vol(xs)
        mu = spec.drift(xs)
    except ImpulseError:
        return False
    return bool(np.all(np.isfinite(sg)) and np.all(sg > 0) and np.all(np.isfinite(mu)))


def numeric_fundamentals(spec, c=None, tol=1e-8, window=None):
    """Build the pair by adaptive integration across an extended window.

    Each branch is integrated once, in the direction where it dominates:
    psi rightward from the left end, starting on the local growth rate
    u'/u = k+, and phi leftward from the right end on the decay rate k-.
    The ODE is linear, so the other branch's share dies off across the
    window.  Each branch is one integration of (log u, u'/u), so nothing
    needs rescaling, and the pair is normalized to psi(c) = phi(c) = 1.
    At alpha = 0, phi = 1 and phi' = 0, and psi is an increasing affine
    image of the scale function from the same integration, started where
    the scale density is smallest and normalized to psi'(c) = 1.
    """
    if window is None:
        lo = spec.lo if math.isfinite(spec.lo) else -20.0
        hi = spec.hi if math.isfinite(spec.hi) else 20.0
        window = (lo, hi)
    x_lo, x_hi = float(window[0]), float(window[1])
    if c is None:
        c = 0.5 * (x_lo + x_hi)
    c = float(c)
    if not x_lo < c < x_hi:
        raise ValidationError("normalization point must be interior")

    # extend past the working window where the coefficients stay valid:
    # branch-selection errors decay like exp(-(k+ - k-) * margin), so the
    # margin buys enough e-folds of the WKB rate gap to push them below
    # the pair tolerance
    span = x_hi - x_lo
    ext_lo, ext_hi = x_lo, x_hi
    if spec.alpha > 0:
        k_plus, k_minus = _wkb_roots(spec, x_lo)
        gap_lo = max(k_plus - k_minus, 1e-6)
        k_plus, k_minus = _wkb_roots(spec, x_hi)
        gap_hi = max(k_plus - k_minus, 1e-6)
        margin_lo = min(max(0.25 * span, 16.0 / gap_lo), 4.0 * span)
        margin_hi = min(max(0.25 * span, 16.0 / gap_hi), 4.0 * span)
    else:
        margin_lo = margin_hi = 0.25 * span
    # the extension may leave the declared state space: only the ODE
    # coefficients need to evaluate there, the pair is used inside
    for frac in (1.0, 0.5, 0.25):
        lo_try = x_lo - frac * margin_lo
        if _coefficients_ok(spec, np.linspace(lo_try, x_lo, 16)):
            ext_lo = lo_try
            break
    for frac in (1.0, 0.5, 0.25):
        hi_try = x_hi + frac * margin_hi
        if _coefficients_ok(spec, np.linspace(x_hi, hi_try, 16)):
            ext_hi = hi_try
            break

    # the error in log u is relative to |log u|, tens of units at the far
    # end, hence the 1e-4 factor
    rtol = min(1e-12, max(tol * 1e-4, 1e-13))
    if spec.alpha > 0:
        psi, dpsi = _log_branch(spec, ext_lo, ext_hi,
                                _wkb_roots(spec, ext_lo)[0], c, rtol)
        phi, dphi = _log_branch(spec, ext_hi, ext_lo,
                                _wkb_roots(spec, ext_hi)[1], c, rtol)
    else:
        # constants solve the ODE, so phi = 1 (rate 0 keeps it exactly 1).
        # psi is u / u'(c), u an affine image of the scale function started
        # where the scale density exp(-int 2 mu / sigma^2) is smallest and
        # growing away from there, so that u's variation, not a constant
        # floor, carries its digits; psi'(c) = 1 fixes the scale
        grid = np.linspace(ext_lo, ext_hi, 65)
        pull = np.mean(spec.drift(grid) / spec.vol(grid) ** 2)
        x0, x1 = (ext_hi, ext_lo) if pull > 0 else (ext_lo, ext_hi)
        u, du = _log_branch(spec, x0, x1, 1.0 / (x1 - x0), c, rtol)
        du_c = du(c)
        psi, dpsi = (lambda x: u(x) / du_c), (lambda x: du(x) / du_c)
        phi, dphi = _log_branch(spec, ext_hi, ext_lo, 0.0, c, rtol)

    # psi and phi are read from a table over the whole integration range,
    # the ODE evaluators pricing its nodes; the derivatives stay on them
    pair = FundamentalPair(
        psi=_log_chebyshev(psi, ext_lo, ext_hi),
        phi=_log_chebyshev(phi, ext_lo, ext_hi),
        dpsi=dpsi, dphi=dphi,
        anchor=c, provenance="numeric",
        window=(ext_lo, ext_hi), F_limit_lo=None,
    )
    xs = np.linspace(x_lo, x_hi, 41)
    if np.any(np.diff(pair.F(xs)) <= 0):
        raise ImpulseError("constructed F is not strictly increasing")
    return pair


def fundamentals_for(spec, c=None, tol=1e-8, window=None):
    """Catalog pair when available, numeric construction otherwise."""
    try:
        return analytic_fundamentals(spec)
    except CatalogMissError:
        return numeric_fundamentals(spec, c=c, tol=tol, window=window)
