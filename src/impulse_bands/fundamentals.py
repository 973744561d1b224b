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

for nu < 0; its psi and phi are then read from a log-space Chebyshev table
built once over the pair window.  Everything else is integrated numerically,
each branch once in the direction where it dominates, on the state
(log u, u'/u), which never needs rescaling; alpha = 0 takes the same route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    """int_0^inf exp(-t^2 - 2 t z) t^(p-1) dt for each z, p > 0.

    The substitution t = u^(1/p) absorbs the endpoint singularity exactly;
    the transformed integrand is then handled by adaptive Gauss-Kronrod
    panels, initially split at the integrand mode.  Each refinement pass
    splits, in one vectorized evaluation, every panel whose error exceeds
    an equal share of the tolerance; if no panel did, the total would pass.
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=float))
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
        # kronrod sums and error estimates, shape (panels, z)
        half = 0.5 * (b - a)
        t = (a[:, None] + half[:, None] * (_XK + 1.0)) ** inv_p
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
        lambda zs: _hermite_integral(p, zs, abs_tol, rel_tol)
        / (p * math.gamma(p)), z)


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
    """Interpolant through ``values`` at the Lobatto nodes, read at s in
    [-1, 1] by the second barycentric formula (stable on these nodes)."""
    diff = s[:, None] - _CHEB_NODES
    hit = diff == 0.0
    diff[hit] = 1.0
    w = _CHEB_WEIGHTS / diff
    out = (w @ values) / w.sum(axis=1)
    rows, cols = np.nonzero(hit)
    out[rows] = values[cols]
    return out


def _log_chebyshev(exact, lo, hi):
    """``exact`` read from a piecewise Chebyshev interpolant of its log.

    The interpolant is built once on [lo, hi]: a piece starts as the whole
    interval, takes a degree-40 interpolant of log(exact) on its
    Chebyshev-Lobatto nodes and is accepted when the last three
    coefficients are at most 1e-13; otherwise it is halved.  A piece that
    still fails after _CHEB_MAX_DEPTH halvings, or whose nodes cannot be
    priced, keeps ``exact``, as does every point outside [lo, hi].  All
    pieces of one depth are priced in a single call of ``exact``.
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

    def u(x):
        xs = np.asarray(x, dtype=float)
        flat = xs.ravel()
        out = np.empty(flat.shape)
        todo = np.ones(flat.shape, dtype=bool)
        for p_lo, p_hi, vals in pieces:
            sel = todo & (flat >= p_lo) & (flat <= p_hi)
            if np.any(sel):
                s = (2.0 * flat[sel] - (p_lo + p_hi)) / (p_hi - p_lo)
                out[sel] = np.exp(_barycentric(s, vals))
                todo &= ~sel
        if np.any(todo):
            out[todo] = exact(flat[todo])
        return out.reshape(xs.shape) if xs.ndim else out[0]

    return u


# ---------------------------------------------------------------------------
# Fundamental pair container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FundamentalPair:
    """Evaluators for psi, phi, their derivatives, and F = psi/phi.

    Immutable and pure; safe to share between workers.  ``F_limit_lo`` is
    the limit of F at the left state boundary when known in closed form
    (0 at a natural boundary reached by decaying psi).  ``window`` brackets
    numeric inversion of F.
    """

    psi: object
    phi: object
    dpsi: object
    dphi: object
    anchor: float
    provenance: str
    window: tuple
    F_limit_lo: float | None = None
    _F_inv_analytic: object = field(default=None, repr=False)

    def F(self, x):
        return self.psi(x) / self.phi(x)

    def F_inv(self, y, xtol=1e-10):
        """x in the window with F(x) = y, elementwise.

        Closed form when the catalog provides one, otherwise one lockstep
        bisection over the whole array, to xtol * max(1, |window ends|).
        """
        if self._F_inv_analytic is not None:
            return self._F_inv_analytic(y)
        return scalar_or_array(self._bisect_F, y, xtol)

    def _bisect_F(self, ys, xtol):
        lo, hi = self.window
        outside = ~((ys >= self.F(lo)) & (ys <= self.F(hi)))
        if np.any(outside):
            raise ImpulseError(
                f"F_inv target {ys[outside].flat[0]} outside F range on "
                f"window {self.window}")
        tol = xtol * max(1.0, abs(hi), abs(lo))
        a = np.full(ys.shape, float(lo))
        b = np.full(ys.shape, float(hi))
        width = hi - lo
        while width > tol:
            mid = 0.5 * (a + b)
            below = self.F(mid) < ys
            a = np.where(below, mid, a)
            b = np.where(below, b, mid)
            width *= 0.5
        return 0.5 * (a + b)

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
    mu = np.broadcast_to(np.asarray(spec.drift(xs), dtype=float), xs.shape)
    sg = np.broadcast_to(np.asarray(spec.vol(xs), dtype=float), xs.shape)

    if np.max(np.abs(mu)) <= 1e-12 and np.max(np.abs(sg - 1.0)) <= 1e-12:
        return ("bm",)

    sigma0 = float(np.mean(sg))
    if np.max(np.abs(sg - sigma0)) <= 1e-10 * (1.0 + sigma0):
        coef = np.polynomial.polynomial.polyfit(xs, mu, 1)
        fit = coef[0] + coef[1] * xs
        if np.max(np.abs(mu - fit)) <= 1e-10 * (1.0 + np.max(np.abs(mu))):
            q = float(coef[1])
            if q < 0:
                delta = -q
                m = float(coef[0]) / delta
                return ("ou", delta, m, sigma0)
    return None


def _bm_pair(spec):
    s = math.sqrt(2.0 * spec.alpha)

    def psi(x):
        return np.exp(s * np.asarray(x, dtype=float))

    def phi(x):
        return np.exp(-s * np.asarray(x, dtype=float))

    F_lo = 0.0 if not math.isfinite(spec.lo) else math.exp(2 * s * spec.lo)
    lo = spec.lo if math.isfinite(spec.lo) else -math.inf
    hi = spec.hi if math.isfinite(spec.hi) else math.inf
    return FundamentalPair(
        psi=psi, phi=phi,
        dpsi=lambda x: s * psi(x), dphi=lambda x: -s * phi(x),
        anchor=0.0, provenance="analytic_bm",
        window=(lo, hi), F_limit_lo=F_lo,
        _F_inv_analytic=lambda y: np.log(y) / (2.0 * s),
    )


def _bm_zero_rate_pair(spec):
    lo = spec.lo

    def one_like(x):
        return np.ones_like(np.asarray(x, dtype=float))

    return FundamentalPair(
        psi=lambda x: np.asarray(x, dtype=float) - lo,
        phi=one_like,
        dpsi=one_like,
        dphi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        anchor=lo + 1.0, provenance="analytic_bm_zero_rate",
        window=(lo, math.inf), F_limit_lo=0.0,
        _F_inv_analytic=lambda y: np.asarray(y, dtype=float) + lo,
    )


def _ou_pair(spec, delta, m, sigma0):
    nu = -spec.alpha / delta
    if nu >= 0:
        raise CatalogMissError("OU catalog needs alpha > 0")
    root = math.sqrt(2.0 * delta)

    def z_of(x):
        return (np.asarray(x, dtype=float) - m) / sigma0

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
        dpsi=dpsi, dphi=dphi,
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
        s2 = float(sig(x)) ** 2
        return [r, 2.0 * (alpha - float(mu(x)) * r) / s2 - r * r]

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
    mu = float(spec.drift(x))
    s2 = float(spec.vol(x)) ** 2
    if s2 == 0.0:
        raise SolverError(
            f"volatility vanishes at x={x}: the fundamental pair cannot be "
            "built by integrating up to that point")
    disc = math.sqrt(mu * mu + 2.0 * spec.alpha * s2)
    return (-mu + disc) / s2, (-mu - disc) / s2


def _coefficients_ok(spec, xs):
    try:
        sg = np.asarray(spec.vol(xs), dtype=float)
        mu = np.asarray(spec.drift(xs), dtype=float)
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
        pull = np.mean(np.asarray(spec.drift(grid), dtype=float)
                       / np.asarray(spec.vol(grid), dtype=float) ** 2)
        x0, x1 = (ext_hi, ext_lo) if pull > 0 else (ext_lo, ext_hi)
        u, du = _log_branch(spec, x0, x1, 1.0 / (x1 - x0), c, rtol)
        du_c = du(c)
        psi, dpsi = (lambda x: u(x) / du_c), (lambda x: du(x) / du_c)
        phi, dphi = _log_branch(spec, ext_hi, ext_lo, 0.0, c, rtol)

    pair = FundamentalPair(
        psi=psi, phi=phi, dpsi=dpsi, dphi=dphi,
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
