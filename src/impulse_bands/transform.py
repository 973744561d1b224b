"""Transformed-space machinery: resolvent g, shifted reward, diagnostics.

The shifted intervention reward

    kbar(x, y) = K(x, y) - (g(x) - g(y))

nets the reward of a jump against the change in expected discounted running
reward, where g(x) = E_x int_0^inf exp(-alpha s) f(X_s) ds.  Dividing by phi
and reading the result in the coordinate y = F(x) produces the function
whose concave majorants drive both the direct solver and the grid oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ImpulseError, SolverError
from .fundamentals import FundamentalPair, fundamentals_for
from .model import ImpulseProblem, SolverOptions, resolve_window
from .numerics import fd_step, scalar_or_array

_PROBE_COUNT = 12
_PROBE_RATIO = 2.0


@dataclass(frozen=True)
class TransformContext:
    """Problem + fundamental pair + boundary data, ready for solving.

    ``D`` is the transformed boundary value ((P - g(lo)) / phi(lo) in
    absorbing mode, the limit l_c in natural mode) and ``F_lo`` the value of
    F at the left boundary, possibly a limit.  Immutable; all evaluators are
    pure.
    """

    problem: ImpulseProblem
    pair: FundamentalPair
    g: object
    dg: object
    g_provenance: str
    D: float
    F_lo: float
    window: tuple
    options: SolverOptions = field(repr=False, default=SolverOptions())

    @property
    def absorbing(self):
        return self.problem.diffusion.absorbing

    @property
    def alpha(self):
        return self.problem.diffusion.alpha

    @property
    def solved_lo(self):
        """Left end of the solved range: the absorbing point or window[0]."""
        return self.problem.diffusion.lo if self.absorbing else self.window[0]

    def kbar(self, x, y):
        """Shifted reward K(x, y) - g(x) + g(y) for downward jumps y <= x."""
        K = self.problem.intervention_reward
        return K(x, y) - self.g(x) + self.g(y)

    def kbar_extended(self, x, a):
        """kbar(x, a) continued below the target by its diagonal value.

        No downward jump to ``a`` exists from x < a; the diagonal K(x, x)
        (the pure fixed cost) keeps the curve defined there without
        creating stopping incentives.
        """
        return self.kbar(x, np.minimum(x, a))

    def line(self, y, beta):
        """The candidate value line W(y) = beta (y - F_lo) + D."""
        return beta * (y - self.F_lo) + self.D

    def gamma(self, a, beta):
        """gamma = phi(a) W(F(a)): the fixed point for slope beta, target a."""
        return self.pair.phi(a) * self.line(self.pair.F(a), beta)


# ---------------------------------------------------------------------------
# Resolvent of the running reward
# ---------------------------------------------------------------------------

def compute_g(problem, pair, window, n_grid=8001):
    """Expected discounted running reward g and its derivative.

    Returns (g, dg, provenance).  The exact coefficients of f, read from
    its parse (``Expr.polynomial``), pick the closed forms: f = 0, and a
    polynomial f of degree <= 2 on standard Brownian motion.  Otherwise
    (A - alpha) g = -f is solved through the resolvent kernel
    w^-1 psi(x ^ y) phi(x v y) m(y) dy on the truncated window, which
    builds in the correct growth behavior at both ends.  Every route's g
    and dg keep the pair's return contract.
    """
    d = problem.diffusion
    f = problem.running_reward
    coef = f.polynomial(2)
    if coef == ():
        zero = lambda x: scalar_or_array(np.zeros_like, x)
        return zero, zero, "zero"

    if coef is not None and pair.provenance == "analytic_bm" and d.alpha > 0:
        s0, s1, s2 = coef + (0.0,) * (3 - len(coef))
        a2 = s2 / d.alpha
        a1 = s1 / d.alpha
        a0 = (s0 + a2) / d.alpha

        def g(x):
            return scalar_or_array(lambda v: a0 + a1 * v + a2 * v * v, x)

        def dg(x):
            return scalar_or_array(lambda v: a1 + 2.0 * a2 * v, x)

        return g, dg, "analytic_bm_quadratic"

    def evaluable(pts):
        try:
            vals = [fn(pts) for fn in (d.drift, d.vol, f, pair.psi, pair.phi)]
        except ImpulseError:
            return False
        return all(np.all(np.isfinite(v)) for v in vals)

    # push the quadrature window outward until the speed measure kills the
    # tails (or the coefficients stop being evaluable)
    x_lo, x_hi = window
    span = x_hi - x_lo
    lo_q, hi_q = x_lo, x_hi
    for frac in (1.5, 0.75, 0.25):
        if lo_q == x_lo and evaluable(np.linspace(x_lo - frac * span, x_lo, 9)):
            lo_q = x_lo - frac * span
        if hi_q == x_hi and evaluable(np.linspace(x_hi, x_hi + frac * span, 9)):
            hi_q = x_hi + frac * span
    if (lo_q, hi_q) != (x_lo, x_hi):
        n_grid = min(int(n_grid * (hi_q - lo_q) / span) | 1, 32001)
    xs = np.linspace(lo_q, hi_q, n_grid)
    fv = f(xs)

    # resolvent quadrature: scale density s, speed density m
    from scipy.integrate import cumulative_simpson

    mu = d.drift(xs)
    sig = d.vol(xs)
    ratio = 2.0 * mu / (sig * sig)
    cum = cumulative_simpson(ratio, x=xs, initial=0.0)
    anchor = np.interp(pair.anchor, xs, cum) if x_lo <= pair.anchor <= x_hi else cum[0]
    s_density = np.exp(-(cum - anchor))
    m_density = 2.0 / (sig * sig * s_density)

    psi_v = pair.psi(xs)
    phi_v = pair.phi(xs)
    cum_lower = cumulative_simpson(psi_v * fv * m_density, x=xs, initial=0.0)
    total_upper = cumulative_simpson(phi_v * fv * m_density, x=xs,
                                     initial=0.0)
    cum_upper = total_upper[-1] - total_upper

    # read after the sums, so the derivatives are not held through them
    dpsi_v = pair.dpsi(xs)
    dphi_v = pair.dphi(xs)
    w = (dpsi_v * phi_v - psi_v * dphi_v) / s_density
    w_const = float(np.median(w))
    if not np.isfinite(w_const) or w_const <= 0:
        raise ImpulseError("degenerate Wronskian in resolvent computation")

    g_grid = (phi_v * cum_lower + psi_v * cum_upper) / w_const
    dg_grid = (dphi_v * cum_lower + dpsi_v * cum_upper) / w_const

    def g(x):
        return scalar_or_array(np.interp, x, xs, g_grid)

    def dg(x):
        return scalar_or_array(np.interp, x, xs, dg_grid)

    return g, dg, "resolvent_quadrature"


# ---------------------------------------------------------------------------
# Boundary data
# ---------------------------------------------------------------------------

def _march(base, far, toward_base):
    """_PROBE_COUNT points base + (far - base) * 2^-k, k = 0, 1, ...: from
    far in toward base, or (toward_base False) from next to base out to far."""
    pts = base + (far - base) * _PROBE_RATIO ** -np.arange(
        _PROBE_COUNT, dtype=float)
    return pts if toward_base else pts[::-1]


def _left_probes(problem, pair, window):
    """Ratio-2 probe sequence marching toward the left boundary.

    For an infinite boundary the march continues past the truncation edge
    as far as the pair can evaluate (distances doubling each step); for a
    finite natural endpoint it halves the gap toward it.
    """
    d = problem.diffusion
    x_lo, x_hi = window
    span = x_hi - x_lo
    if math.isfinite(d.lo):
        return _march(d.lo, x_lo + 0.25 * span, toward_base=True)
    limit = x_lo - 8.0 * span
    pw_lo = pair.window[0]
    if math.isfinite(pw_lo):
        limit = max(limit, pw_lo + 1e-9 * span)
    return _march(x_lo, limit, toward_base=False)


def boundary_data(problem, pair, g, window):
    """(F_lo, D): the pinned point of the transformed value line.

    Absorbing mode evaluates (F(lo), (P - g(lo)) / phi(lo)) directly.  At a
    natural boundary the pin is the limit (F(lo+), l_c) with
    l_c = limsup kbar(x, a)^+ / phi(x) estimated along a ratio-2 probe
    sequence, cross-checked at two reference targets.
    """
    d = problem.diffusion
    x_lo, x_hi = window
    if d.absorbing:
        lo = d.lo
        F_lo = pair.F(lo)
        D = (problem.ruin_penalty - g(lo)) / pair.phi(lo)
        return F_lo, D

    probes = _left_probes(problem, pair, window)
    if pair.F_limit_lo is not None:
        F_lo = float(pair.F_limit_lo)
    else:
        F_lo = pair.F(probes[-1])

    K = problem.intervention_reward
    mid = 0.5 * (x_lo + x_hi)
    estimates = []
    for a in (mid, 0.5 * (mid + x_hi)):
        with np.errstate(over="ignore"):
            vals = np.maximum(K(probes, a) - g(probes) + g(a),
                              0.0) / pair.phi(probes)
        tail = vals[-3:]
        if not np.all(np.isfinite(tail)):
            raise SolverError(
                "boundary value l_c diverges toward the natural boundary; "
                "problem looks ill-posed")
        spread = float(np.max(tail) - np.min(tail))
        if spread <= 1e-6 * (1.0 + float(np.max(np.abs(tail)))):
            estimates.append(float(np.max(tail)))
        elif np.all(np.diff(vals[-6:]) < 0):
            # still decreasing at the evaluable limit: the tail value is a
            # conservative upper estimate of the limsup
            estimates.append(float(tail[-1]))
        else:
            raise SolverError(
                "boundary value l_c diverges toward the natural boundary "
                f"(last probes {tail.tolist()}); problem looks ill-posed")
    return F_lo, max(estimates)


def build_context(problem, options=None, pair=None):
    """Assemble the TransformContext for a validated problem."""
    options = options or SolverOptions()
    window = resolve_window(problem, options)
    if pair is None:
        pair = fundamentals_for(
            problem.diffusion, c=options.normalization_point,
            tol=options.numeric_pair_tol, window=window)
    g, dg, prov = compute_g(problem, pair, window)
    F_lo, D = boundary_data(problem, pair, g, window)
    return TransformContext(
        problem=problem, pair=pair, g=g, dg=dg, g_provenance=prov,
        D=D, F_lo=F_lo, window=window, options=options)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcavityProfile:
    xs: np.ndarray
    signs: np.ndarray
    sign_changes: tuple
    pattern: str


def concavity_profile(ctx, h, n=512, rel_tol=1e-7, x_range=None):
    """Sign profile of the transformed second derivative of h.

    sign(H''(F(x))) matches sign((A - alpha) h(x)), so the concavities of
    the transformed reward can be read off the generator applied to h.
    Derivatives are central differences with step ``fd_step``.
    """
    x_lo, x_hi = x_range if x_range is not None else ctx.window
    pad = (x_hi - x_lo) / (n + 1)
    xs = np.linspace(x_lo + pad, x_hi - pad, n)
    hstep = fd_step(xs)
    h0 = h(xs)
    hp = h(xs + hstep)
    hm = h(xs - hstep)
    d1 = (hp - hm) / (2.0 * hstep)
    d2 = (hp - 2.0 * h0 + hm) / (hstep * hstep)

    d = ctx.problem.diffusion
    sig = d.vol(xs)
    mu = d.drift(xs)
    gen = 0.5 * sig * sig * d2 + mu * d1 - d.alpha * h0

    # sign threshold: global scale plus the cancellation floor of the
    # second difference, so an exact solution of the ODE reads as zero
    eps = np.finfo(float).eps
    mag = np.maximum(np.abs(h0), np.maximum(np.abs(hp), np.abs(hm)))
    floor = 16.0 * sig * sig * eps * mag / (hstep * hstep) \
        + 1e-12 * (np.abs(mu * d1) + d.alpha * np.abs(h0))
    scale = np.max(np.abs(gen)) + 1e-300
    thr = np.maximum(rel_tol * scale, floor)
    signs = np.zeros(n, dtype=int)
    signs[gen > thr] = 1
    signs[gen < -thr] = -1

    changes = []
    nz = np.nonzero(signs)[0]
    for i, j in zip(nz[:-1], nz[1:]):
        if signs[i] != signs[j]:
            changes.append(float(0.5 * (xs[i] + xs[j])))

    reduced = [int(signs[k]) for k in nz]
    compact = [s for i, s in enumerate(reduced) if i == 0 or s != reduced[i - 1]]
    if compact in ([], [-1]):
        pattern = "concave"
    elif compact == [1, -1]:
        pattern = "convex_concave"
    elif compact == [-1, 1, -1]:
        pattern = "concave_convex_concave"
    else:
        pattern = "other"
    return ConcavityProfile(
        xs=xs, signs=signs, sign_changes=tuple(changes), pattern=pattern)


@dataclass(frozen=True)
class FinitenessResult:
    finite: bool
    q: float | None
    estimates: tuple


def _priced(fns, xs):
    """xs and each of fns on it, cut before the first point at which one
    raises ImpulseError: one call per function, or point by point when
    that call raises."""
    try:
        return xs, [fn(xs) for fn in fns]
    except ImpulseError:
        pass
    n = 0
    for x in xs:
        try:
            for fn in fns:
                fn(x)
        except ImpulseError:
            break
        n += 1
    return xs[:n], [fn(xs[:n]) for fn in fns]


def _priced_march(ctx, cand):
    """(xs, phi, psi) on the march cand, up to the first point where the
    pair stops being evaluable."""
    with np.errstate(over="ignore", invalid="ignore"):
        xs, (phi, psi) = _priced((ctx.pair.phi, ctx.pair.psi), cand)
    ok = np.isfinite(phi) & (phi > 0) & np.isfinite(psi)
    n = ok.size if ok.all() else int(np.argmin(ok))
    return xs[:n], phi[:n], psi[:n]


def right_march(ctx):
    """Ratio-2 probe march toward an infinite right boundary, with phi and
    psi on it: (xs, phi, psi), or None at a finite endpoint.

    The march passes the truncation edge with doubling distances, as far
    as the pair stays evaluable.  It does not depend on the target, so one
    march serves ``finiteness_check`` at every target.  A finite endpoint
    is approached from max(a, window midpoint) instead, a march of its own
    for each target a.
    """
    if math.isfinite(ctx.problem.diffusion.hi):
        return None
    x_lo, x_hi = ctx.window
    span = x_hi - x_lo
    limit = x_hi + 8.0 * span
    pw_hi = ctx.pair.window[1]
    if ctx.pair.provenance == "numeric" and math.isfinite(pw_hi):
        limit = min(limit, pw_hi - 1e-9 * span)
    return _priced_march(ctx, _march(x_hi, limit, toward_base=False))


def _right_probes(ctx, a, march):
    """The probes of ``march`` right of the target a, with phi, psi and
    kbar(x, a) there, ending at the first probe where kbar stops being
    evaluable, or just after the first where it is not finite."""
    xs, phi, psi = march
    right = xs > a
    with np.errstate(over="ignore", invalid="ignore"):
        xs, (kb,) = _priced((lambda x: ctx.kbar(x, a),), xs[right])
    # the reward itself blows past floating range: the last evaluable
    # slope counts as already divergent
    bad = ~np.isfinite(kb)
    n = int(np.argmax(bad)) + 1 if bad.any() else kb.size
    return xs[:n], phi[right][:n], psi[right][:n], kb[:n]


def finiteness_check(ctx, a, march=None):
    """Estimate the limiting slope of kbar/phi against F at the right edge.

    The value function is finite iff this left-difference-quotient limsup
    stays bounded; infinity is declared when the probe slopes grow without
    bound (or overflow) across the last probe decades.  ``march`` is
    ``right_march(ctx)``, priced once for several targets at an infinite
    boundary; without one the march is priced here.
    """
    a = float(a)
    x_lo, x_hi = ctx.window
    if march is None:
        march = right_march(ctx) or _priced_march(ctx, _march(
            ctx.problem.diffusion.hi, max(a, 0.5 * (x_lo + x_hi)),
            toward_base=True))
    probes, phi, psi, kb = _right_probes(ctx, a, march)
    if probes.size < 4:
        probes = np.linspace(0.5 * (a + x_hi), x_hi, 6)
        phi, psi = ctx.pair.phi(probes), ctx.pair.psi(probes)
        kb = ctx.kbar(probes, a)
    with np.errstate(over="ignore", invalid="ignore"):
        H = kb / phi
        slopes = np.diff(H) / np.diff(psi / phi)
    if not np.all(np.isfinite(slopes)):
        return FinitenessResult(finite=False, q=None, estimates=tuple(slopes))
    tail = slopes[-4:]
    growing = bool(np.all(np.diff(tail) > 0))
    early = np.max(np.abs(slopes[: max(2, slopes.size // 2)])) + 1e-300
    exploding = bool(np.abs(tail[-1]) > 10.0 * early)
    if growing and exploding:
        return FinitenessResult(finite=False, q=None, estimates=tuple(slopes))
    return FinitenessResult(
        finite=True, q=float(np.max(tail)), estimates=tuple(slopes))
