"""Direct two-stage band solver in the transformed coordinate.

For a fixed jump target ``a`` the stage-one stopping value is a line
through the boundary pin (F_lo, D); touching the shifted reward curve
tangentially at the trigger ``b`` determines the slope

    beta_vm(b) = [kbar(b, a) - D (phi(b) - phi(a))] / [eta(b) - eta(a)],
    eta = psi - F_lo * phi,

whose interior maxima over b are exactly the tangency roots: the zeros of
beta deta(b) + D dphi(b) - d kbar(b, a)/db.  Stage one finds them inside
the brackets the trigger grid gives.  Stage two maximizes beta*(a) over
targets through its first-order condition: by the envelope theorem
d beta*/da has the sign of d kbar(b, a)/da + D dphi(a) + beta deta(a) at
the best trigger b of a.  Near-ties produce multi-band policies.  The
module constants ``X_TOL``, ``B_TOL``, ``A_REFINE_TOL`` and
``BAND_TIE_REL`` fix both root-finds' tolerances and the band tie rule.  A
gamma-parameterized stopping route (the steepest pin chord of the stopping
problem, and its fixed point in closed form) reaches the same fixed point
independently and carries the contraction and uniqueness properties
exercised by the test suite.

Both root-finds run in lockstep over candidate lanes, one vector
evaluation per iteration, so that pairs whose evaluation is costly are hit
with a handful of vectorized calls rather than thousands of scalar ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError
from .model import BandPolicy
from .numerics import bracket_roots, central_diff, scalar_or_array
from .oracle import make_grid
from .transform import concavity_profile, finiteness_check, right_march

_EXPECTED_PATTERNS = ("concave", "convex_concave", "concave_convex_concave")

X_TOL = 1e-10         # relative first-order residual at which both stages stop
B_TOL = 1e-12         # relative trigger bracket at which stage one stops short
A_REFINE_TOL = 1e-7   # relative target bracket at which stage two stops short
BAND_TIE_REL = 1e-4   # a target within this share of beta* adds a band


class NoIntervention(Exception):
    """Signal: acting is never profitable for the queried target."""


@dataclass(frozen=True)
class StageResult:
    """Stage-one outcome for a fixed target a."""

    a: float
    b: float
    beta: float
    gamma: float
    tangency_residual: float
    n_tangency_roots: int
    multi_trigger: bool
    roots: tuple = ()


@dataclass
class SlopeScan:
    """Stage-two outcome: policy plus the beta(a) scan behind it."""

    policy: BandPolicy
    stages: tuple
    scan_a: np.ndarray
    scan_beta: np.ndarray
    no_intervention: bool
    warnings: tuple = ()


@dataclass(frozen=True)
class ValueFunctionRep:
    """Piecewise value function: transform-linear up to the last trigger,
    K-shifted beyond it."""

    policy: BandPolicy
    ctx: object = field(repr=False)

    def _v0(self, x):
        c = self.ctx
        return c.pair.phi(x) * c.line(c.pair.F(x), self.policy.slope) \
            + c.g(x)

    def _dv0(self, x):
        c = self.ctx
        dphi, deta = _pair_slopes(c, x)
        return self.policy.slope * deta + c.D * dphi + c.dg(x)

    def _piecewise(self, xs, inner, jump):
        """inner(xs) below the last trigger b_top; at and beyond it
        jump(k, a_top, max(xs, b_top)) with k(x) = K(x, a_top)."""
        out = inner(xs)
        if not self.policy.is_empty:
            a_top, b_top = self.policy.bands[-1]
            beyond = xs >= b_top
            if np.any(beyond):
                K = self.ctx.problem.intervention_reward
                out = np.where(beyond, jump(
                    lambda x: K(x, a_top), a_top, np.maximum(xs, b_top)), out)
        return out

    def value(self, x):
        return scalar_or_array(
            self._piecewise, x, self._v0,
            lambda k, a_top, xq: self._v0(a_top) + k(xq))

    def derivative(self, x):
        return scalar_or_array(
            self._piecewise, x, self._dv0,
            lambda k, a_top, xq: central_diff(k, xq))

    def pieces(self):
        c = self.ctx
        desc = []
        hi = self.policy.bands[-1][1] if not self.policy.is_empty \
            else c.window[1]
        desc.append({
            "kind": "continuation",
            "x_range": (c.window[0], hi),
            "slope": self.policy.slope,
            "intercept": self.policy.intercept,
        })
        if not self.policy.is_empty:
            a_top, b_top = self.policy.bands[-1]
            desc.append({
                "kind": "intervention",
                "x_range": (b_top, math.inf),
                "target": a_top,
                "base_value": self._v0(a_top),
            })
        return desc


# ---------------------------------------------------------------------------
# Stage one: tangency for fixed targets, vectorized over lanes
# ---------------------------------------------------------------------------

class _ScanWorkspace:
    """Cached pair/resolvent evaluations on a master trigger grid."""

    def __init__(self, ctx, n_b=800):
        self.b_grid = np.linspace(ctx.solved_lo, ctx.window[1], n_b + 1)[1:]
        self.at_b = _chord_terms(ctx, self.b_grid)


def _chord_terms(ctx, x):
    """(phi, eta, g) at x: the pair terms of the chord slope at one end,
    with eta = psi - F_lo phi."""
    phi = ctx.pair.phi(x)
    return phi, ctx.pair.psi(x) - ctx.F_lo * phi, ctx.g(x)


def _chord_slope(ctx, b, a, at_b, at_a):
    """beta_vm(b) for the target a, from _chord_terms at b and at a."""
    K = ctx.problem.intervention_reward
    phi_b, eta_b, g_b = at_b
    phi_a, eta_a, g_a = at_a
    kab = K(b, a) - g_b + g_a
    return (kab - ctx.D * (phi_b - phi_a)) / (eta_b - eta_a)


def _pair_slopes(ctx, x):
    """(dphi, deta) at x, deta = dpsi - F_lo dphi the derivative of eta."""
    dphi = ctx.pair.dphi(x)
    return dphi, ctx.pair.dpsi(x) - ctx.F_lo * dphi


def _tangency_residual(ctx, b, a, beta):
    """beta deta(b) + D dphi(b) - d kbar(b, a)/db relative to
    |beta deta(b)| + |d kbar/db|: zero where the line of slope beta touches
    the shifted reward at the trigger b, of the sign of -d beta_vm/db.
    The central difference of kbar keeps it consistent with a
    piecewise-linear resolvent g."""
    dphi, deta = _pair_slopes(ctx, b)
    dkb = central_diff(lambda x: ctx.kbar(x, a), b)
    return (beta * deta + ctx.D * dphi - dkb) \
        / (np.abs(beta * deta) + np.abs(dkb) + 1e-300)


def _stage_roots(ctx, a_vec, workspace=None):
    """All refined tangency roots (b, beta) for each target in a_vec.

    Every interior local maximum of the chord slope on the trigger grid
    brackets a sign change of the tangency residual between its two grid
    neighbours; the roots are found there in lockstep.  Returns a list (one
    entry per target) of sorted (b, beta) tuples, a per-target flag telling
    whether the chord slope was still rising at the truncation edge, a flag
    telling whether the target has three valid grid triggers, the best grid
    slope, and the per-target count of grid maxima whose bracket showed no
    sign change (dropped: no tangency was found there).
    """
    ws = workspace or _ScanWorkspace(ctx)
    a_vec = np.atleast_1d(np.asarray(a_vec, dtype=float))
    span = ctx.window[1] - ctx.window[0]
    gap = 1e-3 * span / ws.b_grid.size

    at_a = _chord_terms(ctx, a_vec)
    bs = ws.b_grid
    mask = bs[None, :] > a_vec[:, None] + gap
    safe_tgt = np.where(mask, a_vec[:, None], bs[None, :])  # stay in domain
    with np.errstate(divide="ignore", invalid="ignore"):
        betas = np.where(mask, _chord_slope(
            ctx, bs[None, :], safe_tgt, [t[None, :] for t in ws.at_b],
            [t[:, None] for t in at_a]), -np.inf)

    inner = np.zeros_like(mask)
    inner[:, 1:-1] = (betas[:, 1:-1] >= betas[:, :-2]) \
        & (betas[:, 1:-1] >= betas[:, 2:]) & mask[:, 1:-1] \
        & mask[:, :-2]
    rows, cols = np.nonzero(inner)

    # each row's mask is a suffix of the increasing trigger grid, so its
    # last candidate is the grid's last node
    valid_any = np.count_nonzero(mask, axis=1) >= 3
    j_best = np.argmax(betas, axis=1)
    row_best = np.where(valid_any, betas[np.arange(a_vec.size), j_best],
                        -np.inf)
    edge_flag = valid_any & (j_best >= bs.size - 2)

    def residual_lanes(b, idx):
        lane = rows[idx]
        a = a_vec[lane]
        beta = _chord_slope(ctx, b, a, _chord_terms(ctx, b),
                            [t[lane] for t in at_a])
        return np.stack([_tangency_residual(ctx, b, a, beta), beta])

    roots = [[] for _ in range(a_vec.size)]
    unbracketed = np.zeros(a_vec.size, dtype=int)
    if rows.size:
        b_tol = B_TOL * np.maximum(1.0, np.abs(bs[cols]))
        b_ref, (_, beta_ref) = bracket_roots(
            residual_lanes, bs[cols - 1], bs[cols + 1], X_TOL, b_tol)
        found = np.isfinite(b_ref)
        np.add.at(unbracketed, rows[~found], 1)
        for k in np.flatnonzero(found):
            roots[rows[k]].append((float(b_ref[k]), float(beta_ref[k])))

    merged = []
    for i in range(a_vec.size):
        out = []
        for b_star, beta_star in sorted(roots[i]):
            if out and abs(b_star - out[-1][0]) \
                    <= 50 * B_TOL * max(1.0, abs(b_star)):
                if beta_star > out[-1][1]:
                    out[-1] = (b_star, beta_star)
            else:
                out.append((b_star, beta_star))
        merged.append(out)
    return merged, edge_flag, valid_any, row_best, unbracketed


def _stage_result(ctx, a, roots):
    roots = sorted(roots, key=lambda t: -t[1])
    b_best, beta_best = roots[0]
    multi = len(roots) > 1 and roots[1][1] >= beta_best * (1 - 1e-3)
    return StageResult(
        a=a, b=b_best, beta=beta_best,
        gamma=ctx.gamma(a, beta_best),
        tangency_residual=float(_tangency_residual(ctx, b_best, a, beta_best)),
        n_tangency_roots=len(roots), multi_trigger=bool(multi),
        roots=tuple(roots))


def tangency_solve(ctx, a, workspace=None):
    """Trigger b(a), slope beta(a), and fixed point for one target.

    Scans the chord slope over trigger candidates, finds the tangency root
    inside the bracket of every interior local maximum to the residual
    tolerance ``X_TOL``, and reports all tangency roots; the returned
    trigger is the global maximizer.  Raises
    :class:`NoIntervention` when no trigger improves on doing nothing and
    :class:`SolverError` when the maximum sits on the truncation edge.
    """
    a = float(a)
    roots, edge, valid, row_best, _ = _stage_roots(ctx, [a],
                                                   workspace=workspace)
    if not valid[0] or row_best[0] <= 0.0:
        raise NoIntervention
    if edge[0]:
        raise SolverError(
            f"no interior tangency for a={a}: slope still rising at the "
            "truncation edge (check finiteness / enlarge x_max)")
    rs = [r for r in roots[0] if math.isfinite(r[1])]
    if not rs or max(b for _, b in rs) <= 0.0:
        raise NoIntervention
    return _stage_result(ctx, a, rs)


# ---------------------------------------------------------------------------
# Gamma fixed point through the parameterized stopping problem
# ---------------------------------------------------------------------------

def stopping_grid(ctx):
    """The node set of ``stopping_value`` and ``solve_gamma``; build it once
    and pass it as ``grid`` when calling them repeatedly."""
    return make_grid(ctx, n_nodes=max(512, ctx.options.oracle_nodes // 2))


def _stop_states(ctx, a, grid):
    """phi(a), F(a) - F_lo, and kbar(x_k, a), phi(x_k), F(x_k) - F_lo over
    the grid's stop states x_k >= a (downward jumps only)."""
    xs, ys = stopping_grid(ctx) if grid is None else grid
    stop = xs >= a
    return (ctx.pair.phi(a), ctx.pair.F(a) - ctx.F_lo, ctx.kbar(xs[stop], a),
            ctx.pair.phi(xs[stop]), ys[stop] - ctx.F_lo)


def stopping_value(ctx, a, gamma, grid=None):
    """V^gamma_a(a): the parameterized stopping value at the target, for a
    scalar gamma (a float back) or an array of gammas (one value each).

    It is the pinned concave envelope of the shifted transformed reward
    (kbar(x_k, a) + gamma)/phi(x_k) over the stop states, read at F(a) and
    scaled back by phi(a).  F(a) lies left of every stop state, where the
    envelope is the steepest chord from the pin (F_lo, D), held flat when
    every chord falls:

        V = phi(a) (D + (F(a) - F_lo) max(0, max_k s_k(gamma))),
        s_k(gamma) = ((kbar(x_k, a) + gamma)/phi(x_k) - D) / (F(x_k) - F_lo).
    """
    a = float(a)
    phi_a, c_a, kbar, phi_k, dF = _stop_states(ctx, a, grid)
    if kbar.size == 0:
        raise SolverError(f"target a={a} leaves no room for a trigger")

    def values(gammas):
        s = ((kbar + gammas[:, None]) / phi_k - ctx.D) / dF
        return phi_a * (ctx.D + c_a * np.maximum(0.0, s.max(axis=1)))

    return scalar_or_array(values, gamma)


def solve_gamma(ctx, a, grid=None):
    """Unique fixed point gamma* = V^gamma*_a(a), in closed form.

    V - gamma is the maximum of the line phi(a) D - gamma and the lines
    L_k(gamma) = phi(a) (D + c_a s_k(gamma)) - gamma, c_a = F(a) - F_lo,
    of slope phi(a) c_a / (phi(x_k) (F(x_k) - F_lo)) - 1.  The root of a
    maximum of falling lines is the largest of their roots, so
    gamma* = max(phi(a) D, max_k gamma_k).  A line of slope >= 0 is
    dropped when it is not positive at gamma = 0: the stop state x_k = a
    gives the constant kbar(a, a) < 0, whose slope rounding can put at
    +1e-16.  One that is positive there keeps V - gamma positive for every
    gamma, so the value is infinite and :class:`SolverError` is raised.
    """
    a = float(a)
    phi_a, c_a, kbar, phi_k, dF = _stop_states(ctx, a, grid)
    if kbar.size == 0 or float(np.max(kbar)) <= 0.0:
        raise NoIntervention
    at_zero = phi_a * (ctx.D + c_a * ((kbar / phi_k - ctx.D) / dF))
    slope = phi_a * c_a / (phi_k * dF) - 1.0
    if max(phi_a * ctx.D, float(np.max(at_zero))) <= 0.0:
        raise NoIntervention
    falling = slope < 0.0
    if np.any(at_zero[~falling] > 0.0):
        raise SolverError(
            f"gamma fixed point is infinite at a={a}: a stop line does not "
            "fall as gamma grows")
    return max(phi_a * ctx.D,
               float(np.max(-at_zero[falling] / slope[falling],
                            initial=-math.inf)))


# ---------------------------------------------------------------------------
# Stage two: maximize the slope over targets
# ---------------------------------------------------------------------------

def _target_grid(ctx):
    opts = ctx.options
    lo, x_hi = ctx.solved_lo, ctx.window[1]
    span = x_hi - lo
    margin = 1e-4 * span
    uniform = np.linspace(lo + margin, x_hi - margin, opts.scan_points)
    geometric = lo + span * 2.0 ** (-np.arange(2.0, 17.0))
    grid = np.unique(np.concatenate([uniform, geometric]))
    return grid[(grid > lo + margin) & (grid < x_hi)]


def _interior_best(roots, edge, valid):
    """(b, beta) of the best refined root per target; (nan, -inf) without
    an interior tangency."""
    best = [max(r, key=lambda root: root[1]) if v and not e and r
            else (math.nan, -math.inf) for r, e, v in zip(roots, edge, valid)]
    return np.array(best).reshape(-1, 2).T


def _envelope_slope(ctx, b, a, beta):
    """d kbar(b, a)/da + D dphi(a) + beta deta(a) relative to
    |d kbar/da| + |beta deta(a)|: by the envelope theorem of the sign of
    d beta*/da at a target a whose best trigger b has slope beta."""
    dphi, deta = _pair_slopes(ctx, a)
    dka = central_diff(lambda y: ctx.kbar(b, y), a)
    return (dka + ctx.D * dphi + beta * deta) \
        / (np.abs(dka) + np.abs(beta * deta) + 1e-300)


def scan_slopes(ctx):
    """beta(a) over the target grid plus the refined band policy."""
    ws = _ScanWorkspace(ctx)
    targets = _target_grid(ctx)

    warnings = []
    march = right_march(ctx)
    for a in targets[:: max(1, targets.size // 5)]:
        fin = finiteness_check(ctx, float(a), march)
        if not fin.finite:
            raise SolverError(
                f"finiteness check failed at a={a}: transformed reward has "
                "unbounded slope at the right boundary")

    roots, edge, valid, row_best, unbracketed = _stage_roots(
        ctx, targets, workspace=ws)
    if unbracketed.any():
        warnings.append(
            f"{int(unbracketed.sum())} trigger grid maxima showed no sign "
            "change of the tangency residual and were dropped")
    _, best = _interior_best(roots, edge, valid)
    betas = np.where((best > 0.0) & np.isfinite(best), best, np.nan)
    edge_best = np.max(row_best[valid & edge & (row_best > 0.0)],
                       initial=-math.inf)

    finite = np.isfinite(betas)
    if not np.any(finite):
        policy = BandPolicy(
            bands=(), slope=0.0, intercept=ctx.D,
            fixed_point_A=(ctx.F_lo, ctx.D))
        return SlopeScan(
            policy=policy, stages=(), scan_a=targets, scan_beta=betas,
            no_intervention=True, warnings=tuple(warnings))

    # local maxima of beta(a): the zeros of d beta*/da, found in lockstep
    tv = targets[finite]
    bv = betas[finite]
    pad = np.concatenate([[-math.inf], bv, [-math.inf]])
    pos = np.flatnonzero((bv >= pad[:-2]) & (bv >= pad[2:]))
    lanes_lo = tv[np.maximum(pos - 1, 0)]
    lanes_hi = tv[np.minimum(pos + 1, tv.size - 1)]

    def envelope_lanes(a, _idx):
        b, beta = _interior_best(*_stage_roots(ctx, a, workspace=ws)[:3])
        with np.errstate(invalid="ignore"):
            return np.stack([_envelope_slope(ctx, b, a, beta), beta])

    a_tol = A_REFINE_TOL * np.maximum(1.0, np.abs(tv[pos]))
    a_ref, (_, beta_ref) = bracket_roots(envelope_lanes, lanes_lo, lanes_hi,
                                         X_TOL, a_tol)
    coarse = np.isnan(a_ref)
    if coarse.any():
        a_ref[coarse], beta_ref[coarse] = tv[pos[coarse]], bv[pos[coarse]]
        warnings.append(
            f"{int(coarse.sum())} target(s) kept at the resolution of the "
            "target grid: d beta*/da shows no sign change around them")

    keep = np.isfinite(beta_ref) & (beta_ref > 0.0)
    if not np.any(keep):
        raise SolverError("all tangency refinements failed")
    a_ref, beta_ref = a_ref[keep], beta_ref[keep]
    beta_best = float(np.max(beta_ref))
    if edge_best > beta_best:
        warnings.append(
            "a target with its chord slope still rising at the truncation "
            "edge beats the interior optimum; enlarge x_max")
    order = np.argsort(a_ref)
    chosen = [(float(a_ref[i]), float(beta_ref[i])) for i in order
              if beta_ref[i] >= beta_best * (1.0 - BAND_TIE_REL)]

    span = ctx.window[1] - ctx.window[0]
    stages = []
    for a_star, _ in chosen:
        if stages and abs(a_star - stages[-1].a) <= 1e-5 * span:
            continue
        stages.append(tangency_solve(ctx, a_star, workspace=ws))

    ordered = []
    for st in stages:
        if ordered and st.a < ordered[-1].b:
            if st.beta > ordered[-1].beta:
                ordered[-1] = st
            else:
                warnings.append(
                    f"dropped overlapping band candidate at a={st.a:.6g}")
            continue
        ordered.append(st)
    stages = ordered

    if any(st.multi_trigger for st in stages):
        warnings.append(
            "multiple tangency triggers detected for a single target "
            "(multi_trigger); only the best trigger is used")

    a0 = stages[0].a
    span_pad = 1e-3 * (ctx.window[1] - a0)
    profile = concavity_profile(
        ctx, lambda x: ctx.kbar(x, a0),
        x_range=(a0 + span_pad, ctx.window[1]))
    if profile.pattern not in _EXPECTED_PATTERNS:
        warnings.append(
            "transformed reward concavity pattern at the optimum is outside "
            "the catalogued cases; optimality is not certified")

    policy = BandPolicy(
        bands=tuple((st.a, st.b) for st in stages),
        slope=beta_best, intercept=ctx.D,
        fixed_point_A=(ctx.F_lo, ctx.D))
    return SlopeScan(
        policy=policy, stages=tuple(stages), scan_a=targets, scan_beta=betas,
        no_intervention=False, warnings=tuple(warnings))


def assemble_value(ctx, policy):
    """Piecewise value function for a solved policy."""
    return ValueFunctionRep(policy=policy, ctx=ctx)


def smooth_fit_check(vrep, b, step=1e-5):
    """|v'(b-) - v'(b+)| by one-sided second-order differences."""
    v = vrep.value
    h = step * max(1.0, abs(b))
    left = (3 * v(b) - 4 * v(b - h) + v(b - 2 * h)) / (2 * h)
    right = (-3 * v(b) + 4 * v(b + h) - v(b + 2 * h)) / (2 * h)
    return abs(left - right)
