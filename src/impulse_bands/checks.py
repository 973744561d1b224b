"""Problem-generic property suite.

These checks need no externally published numbers: they verify structural
facts that must hold for any solvable configuration (concavity of the
transformed excess value, linearity on the continuation region, the
contraction and uniqueness of the gamma fixed point, envelope correctness
against brute force, and monotone grid iteration).  The CLI `check`
subcommand runs them all and fails with exit code 3 if any fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ImpulseError
from .oracle import concave_envelope, value_iteration
from .solver import (NoIntervention, assemble_value, scan_slopes,
                     stopping_grid, stopping_value)
from .transform import finiteness_check


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    detail: str


def _excess(ctx, vrep, xs):
    """The transformed excess value W = (v - g)/phi at the states xs."""
    return (vrep.value(xs) - ctx.g(xs)) / ctx.pair.phi(xs)


def check_f_concavity(ctx, vrep, n_triples=500, tol=1e-8, seed=11):
    """Transformed excess value lies above its chords."""
    rng = np.random.default_rng(seed)
    x_lo, x_hi = ctx.solved_lo, ctx.window[1]
    xs = np.sort(rng.uniform(x_lo + 1e-3 * (x_hi - x_lo), x_hi,
                             (n_triples, 3)))
    ys = ctx.pair.F(xs)
    wide = ys[:, 2] - ys[:, 0] >= 1e-9 * (1 + np.abs(ys[:, 2]))
    xs, ys = xs[wide], ys[wide]
    y1, y2, y3 = ys.T
    w1, w2, w3 = _excess(ctx, vrep, xs).T
    chord = w1 + (w3 - w1) * (y2 - y1) / (y3 - y1)
    worst = float(np.max(chord - w2, initial=-math.inf))
    ok = worst <= tol
    return PropertyCheck(
        "f_concavity_chords", ok,
        f"max chord excess {worst:.3e} (tol {tol:.0e}, {n_triples} triples)")


def check_linearity(ctx, vrep, tol=1e-9, n=200):
    """(v-g)/phi is a straight line in F on the continuation region."""
    if vrep.policy.is_empty:
        return PropertyCheck("continuation_linearity", True, "empty policy")
    b_top = vrep.policy.bands[-1][1]
    x_lo = ctx.solved_lo
    xs = np.linspace(x_lo + 1e-6 * (b_top - x_lo), b_top, n)
    ys = ctx.pair.F(xs)
    W = _excess(ctx, vrep, xs)
    coef = np.polynomial.polynomial.polyfit(ys, W, 1)
    resid = float(np.max(np.abs(W - (coef[0] + coef[1] * ys))))
    ok = resid <= tol
    return PropertyCheck(
        "continuation_linearity", ok,
        f"max line residual {resid:.3e} (tol {tol:.0e})")


def check_majorant(ctx, vrep, n=400, rel_tol=1e-7):
    """The value line dominates the shifted reward at sampled states."""
    if vrep.policy.is_empty:
        return PropertyCheck("line_majorizes_reward", True, "empty policy")
    a_star = vrep.policy.bands[-1][0]
    beta = vrep.policy.slope
    xs = np.linspace(a_star, ctx.window[1], n)
    gamma = ctx.gamma(a_star, beta)
    shifted = (ctx.kbar(xs, a_star) + gamma) / ctx.pair.phi(xs)
    line = ctx.line(ctx.pair.F(xs), beta)
    gapmin = float(np.min(line - shifted))
    scale = float(np.max(np.abs(shifted))) + 1.0
    ok = gapmin >= -rel_tol * scale
    return PropertyCheck(
        "line_majorizes_reward", ok,
        f"min(line - shifted reward) {gapmin:.3e} over [a*, x_max]")


def check_contraction(ctx, a, deltas=(0.1, 1.0, 10.0), slack=1e-7):
    """Stopping value grows by at most delta when the bonus grows by delta."""
    vals = stopping_value(ctx, a, np.array((0.0, *deltas)))
    worst = float(np.max((vals[1:] - vals[0]) - np.asarray(deltas)))
    ok = worst <= slack * 10
    return PropertyCheck(
        "gamma_contraction", ok,
        f"max excess growth {worst:.3e} over deltas {deltas}")


def check_gamma_sign_change(ctx, targets, n_gamma=60, seed=5):
    """gamma -> V_a(gamma) - gamma crosses zero exactly once per target."""
    rng = np.random.default_rng(seed)
    targets = np.asarray(targets, dtype=float)
    picks = rng.choice(targets, size=min(20, targets.size), replace=False)
    grid = stopping_grid(ctx)
    bad = []
    tested = 0
    for a in picks:
        try:
            from .solver import solve_gamma
            gstar = solve_gamma(ctx, float(a), grid=grid)
        except NoIntervention:
            continue
        except ImpulseError:
            bad.append((float(a), "solve failed"))
            continue
        tested += 1
        gammas = np.linspace(0.0, 2.5 * max(gstar, 1e-6), n_gamma)
        vals = stopping_value(ctx, float(a), gammas, grid=grid) - gammas
        signs = np.sign(vals[np.abs(vals) > 1e-12 * (1 + np.abs(vals).max())])
        flips = int(np.sum(np.diff(signs) != 0))
        if flips != 1:
            bad.append((float(a), f"{flips} sign changes"))
    ok = not bad and tested > 0
    return PropertyCheck(
        "gamma_unique_sign_change", ok,
        f"{tested} targets tested" + (f"; failures {bad}" if bad else ""))


def _chord_triples(n):
    """Every triple j < i < k of n points, in order of i, as (j, ij, kj,
    starts): j, the flat indices of (i, j) and (k, j) in an n x n table,
    and where each interior point's run of triples begins."""
    a = np.arange(n)
    i, j, k = np.nonzero((a[None, :, None] < a[:, None, None])
                         & (a[:, None, None] < a[None, None, :]))
    starts = np.flatnonzero(np.diff(i, prepend=-1))
    return j, i * n + j, k * n + j, starts


def _brute_force_envelope(ys, vals, triples):
    """vals raised to every chord (j, k) at each point i with j < i < k.

    Only the C(n, 3) triples in which i lies strictly between the chord's
    ends are evaluated, so the end points keep their values.  ``triples``
    is ``_chord_triples(ys.size)``, built once for many instances.
    """
    j, ij, kj, starts = triples
    env = vals.copy()
    if starts.size:  # n >= 3; reduceat takes no empty index
        dy = (ys[:, None] - ys).ravel()      # ys[i] - ys[j] at i * n + j
        dv = (vals[:, None] - vals).ravel()  # vals[k] - vals[j] at k * n + j
        chords = vals[j] + dy[ij] / dy[kj] * dv[kj]
        np.maximum(env[1:-1], np.maximum.reduceat(chords, starts),
                   out=env[1:-1])
    return env


def _envelope_instances(n_instances, n_points, seed):
    """Seeded random (ys, vals) instances, ys strictly increasing."""
    rng = np.random.default_rng(seed)
    for _ in range(n_instances):
        ys = np.sort(rng.uniform(-5, 5, n_points))
        ys += np.arange(n_points) * 1e-9  # enforce strict increase
        yield ys, rng.normal(0.0, 3.0, n_points)


def check_envelope_brute_force(n_instances=50, n_points=60, seed=7):
    """Monotone-chain envelope equals the pairwise-chord brute force."""
    triples = _chord_triples(n_points)
    worst = 0.0
    for ys, vals in _envelope_instances(n_instances, n_points, seed):
        fast = concave_envelope(ys, vals)
        slow = _brute_force_envelope(ys, vals, triples)
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    ok = n_instances > 0 and worst <= 1e-9
    return PropertyCheck(
        "envelope_vs_brute_force", ok,
        f"max deviation {worst:.3e} over {n_instances} instances")


def check_monotone_iteration(ctx, n_nodes=600, n_max=120, tol=1e-5,
                             x_max=None):
    """Grid iterates never decrease and their sup-change settles."""
    og = value_iteration(ctx, n_nodes=n_nodes, n_max=n_max, tol=tol,
                         x_max=x_max)
    scale = float(np.max(np.abs(og.values))) + 1e-300
    min_inc = min(og.min_increments) if og.min_increments else 0.0
    ok = min_inc >= -1e-9 * scale
    return PropertyCheck(
        "monotone_value_iteration", ok,
        f"min pointwise increment {min_inc:.3e} over {og.n_iter} iterations "
        f"(final change {og.sup_change:.2e})")


def run_property_suite(ctx, oracle_x_max=None):
    """All property checks for one problem; returns a list of results."""
    scan = scan_slopes(ctx)
    vrep = assemble_value(ctx, scan.policy)

    results = [
        check_f_concavity(ctx, vrep),
        check_linearity(ctx, vrep),
        check_majorant(ctx, vrep),
    ]

    valid = scan.scan_a[np.isfinite(scan.scan_beta)]
    if valid.size:
        mid_target = float(valid[valid.size // 2])
        results.append(check_contraction(ctx, mid_target))
        results.append(check_gamma_sign_change(ctx, valid))
    results.append(check_envelope_brute_force())
    results.append(check_monotone_iteration(
        ctx, x_max=oracle_x_max or ctx.options.oracle_x_max))

    if not scan.no_intervention:
        fin = finiteness_check(ctx, float(scan.policy.bands[0][0]))
        results.append(PropertyCheck(
            "finiteness_at_optimum", fin.finite,
            f"q estimate {fin.q}"))
    return results
