import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse.linalg
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import spsolve

from impulse_bands import OracleError, concave_envelope, value_iteration
from impulse_bands.checks import (_brute_force_envelope, _chord_triples,
                                  _envelope_instances,
                                  check_envelope_brute_force)
from impulse_bands.oracle import (_Workspace, intervention_operator,
                                  make_grid, pinned_envelope)


def brute_force_envelope(ys, vals):
    n = ys.size
    out = vals.copy()
    for j in range(n):
        for k in range(j + 1, n):
            t = (ys[j + 1:k] - ys[j]) / (ys[k] - ys[j])
            chord = vals[j] + t * (vals[k] - vals[j])
            np.maximum(out[j + 1:k], chord, out=out[j + 1:k])
    return out


def test_envelope_collinear_points():
    ys = np.linspace(0, 1, 11)
    vals = 2.0 * ys + 0.3
    np.testing.assert_allclose(concave_envelope(ys, vals), vals, rtol=1e-14)


def test_envelope_single_spike():
    ys = np.linspace(0.0, 2.0, 21)
    vals = np.zeros(21)
    vals[10] = 1.0  # spike above the base line at y = 1
    env = concave_envelope(ys, vals)
    np.testing.assert_allclose(env, 1.0 - np.abs(ys - 1.0) / 1.0, atol=1e-14)


def test_envelope_needs_increasing_abscissae():
    with pytest.raises(OracleError):
        concave_envelope(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    with pytest.raises(OracleError):
        concave_envelope(np.array([1.0]), np.array([2.0]))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 80), st.integers(0, 2 ** 31 - 1))
def test_envelope_matches_brute_force(n, seed):
    rng = np.random.default_rng(seed)
    ys = np.sort(rng.uniform(-4, 4, n)) + np.arange(n) * 1e-8
    vals = rng.normal(0, 2, n)
    slow = brute_force_envelope(ys, vals)
    np.testing.assert_allclose(
        concave_envelope(ys, vals), slow, rtol=1e-10, atol=1e-10)
    # the property suite's triple kernel does the same arithmetic
    np.testing.assert_array_equal(
        _brute_force_envelope(ys, vals, _chord_triples(n)), slow)


def test_envelope_check_reports_the_loop_reference_deviation():
    worst = max(float(np.max(np.abs(concave_envelope(ys, vals)
                                    - brute_force_envelope(ys, vals))))
                for ys, vals in _envelope_instances(50, 60, 7))
    check = check_envelope_brute_force()
    assert check.passed
    assert check.detail == f"max deviation {worst:.3e} over 50 instances"


@pytest.mark.parametrize("n_points", [2, 3])
def test_envelope_check_at_the_kernel_edges(n_points):
    assert check_envelope_brute_force(n_instances=5, n_points=n_points).passed


def test_envelope_check_without_instances_fails():
    assert not check_envelope_brute_force(n_instances=0).passed


def test_pinned_envelope_nondecreasing():
    ys = np.linspace(1.0, 3.0, 30)
    vals = -((ys - 1.8) ** 2)
    env, left = pinned_envelope(ys, vals, pin=(0.0, -0.5))
    assert left == -0.5
    assert np.all(np.diff(env) >= -1e-14)
    assert np.all(env >= vals - 1e-12)


# ---------------------------------------------------------------------------
# intervention operator
# ---------------------------------------------------------------------------

def test_intervention_operator_maximizer_location(bm_ctx):
    # with zero continuation value the best jump target maximizes kbar,
    # which for the quadratic-cost problem peaks at lambda * alpha / 2 = 5
    xs, ys = make_grid(bm_ctx, n_nodes=1200)
    ws = _Workspace(bm_ctx, xs, ys)

    class G:
        pass

    grid = G()
    grid.xs, grid.ys = xs, ys
    grid.values = np.zeros(xs.size)
    i = int(np.searchsorted(xs, 12.261))
    row = ws.kbar_at(i, np.arange(xs.size)) + ws.phi * grid.values
    j = int(np.argmax(row))
    assert xs[j] == pytest.approx(5.0, abs=0.05)
    m = intervention_operator(bm_ctx, grid, workspace=ws)
    assert m[i] == pytest.approx(row[j] / ws.phi[i], rel=1e-12)


def test_intervention_operator_constant_cost(no_intervention_ctx):
    ctx = no_intervention_ctx
    xs, ys = make_grid(ctx, n_nodes=300)
    ws = _Workspace(ctx, xs, ys)

    class G:
        pass

    grid = G()
    grid.xs, grid.ys = xs, ys
    grid.values = np.zeros(xs.size)
    m = intervention_operator(ctx, grid, workspace=ws)
    # M Phi = (-c + max u) / phi with u = 0
    expected = -5.0 / np.asarray(ctx.pair.phi(xs[1:]), dtype=float)
    np.testing.assert_allclose(m[1:], expected, rtol=1e-12)


def test_intervention_operator_monotone(bm_ctx):
    xs, ys = make_grid(bm_ctx, n_nodes=400)
    ws = _Workspace(bm_ctx, xs, ys)
    rng = np.random.default_rng(4)

    class G:
        pass

    grid = G()
    grid.xs, grid.ys = xs, ys
    phi1 = rng.uniform(0.0, 1.0, xs.size)
    phi2 = phi1 + rng.uniform(0.0, 0.5, xs.size)
    m1 = intervention_operator(bm_ctx, grid, phi1, workspace=ws)
    m2 = intervention_operator(bm_ctx, grid, phi2, workspace=ws)
    sel = np.isfinite(m1)
    assert np.all(m2[sel] >= m1[sel] - 1e-12)


def _dense_kbar(ctx, xs):
    """kbar as the full N x N matrix, -inf on and above the diagonal."""
    K = ctx.problem.intervention_reward
    gx = np.broadcast_to(np.asarray(ctx.g(xs), dtype=float), xs.shape)
    xi = xs[:, None]
    yj = xs[None, :]
    kb = np.asarray(K(xi, np.minimum(xi, yj)), dtype=float)
    kb = np.broadcast_to(kb, (xs.size, xs.size)).copy()
    kb += gx[None, :] - gx[:, None]
    kb[np.triu_indices(xs.size, k=0)] = -np.inf
    return kb


def _dense_operator(ws, kbar, values):
    """M Phi and its targets from the dense matrix, in one piece."""
    u = ws.phi * values
    cand = kbar + u[None, :]
    target = np.argmax(cand, axis=1)
    best = np.take_along_axis(cand, target[:, None], axis=1)[:, 0]
    if ws.to_ruin is not None:
        target[ws.to_ruin > best] = -1
        best = np.maximum(best, ws.to_ruin)
    return best / ws.phi, target


@pytest.mark.parametrize("name", ["bm", "ou"])
@pytest.mark.parametrize("n", [200, 512, 777])
def test_blocked_workspace_equals_dense(name, n, request):
    # fewer nodes than one block, a multiple of the block size, and neither;
    # ou is absorbing, so its ruin payoff competes with the jumps
    ctx = request.getfixturevalue(f"{name}_ctx")
    xs, ys = make_grid(ctx, n_nodes=1600)
    xs, ys = xs[:n], ys[:n]
    ws = _Workspace(ctx, xs, ys)
    dense = _dense_kbar(ctx, xs)
    rng = np.random.default_rng(n)
    for values in (np.zeros(n), rng.uniform(0.0, 1.0, n),
                   rng.normal(0.0, 50.0, n)):
        m_phi, target = intervention_operator(ctx, None, values,
                                              workspace=ws, targets=True)
        m_ref, target_ref = _dense_operator(ws, dense, values)
        np.testing.assert_array_equal(m_phi, m_ref)
        np.testing.assert_array_equal(target, target_ref)
        jump = np.flatnonzero(target >= 0)
        np.testing.assert_array_equal(ws.kbar_at(jump, target[jump]),
                                      dense[jump, target[jump]])
    rows = rng.integers(0, n, 5000)
    cols = rng.integers(0, n, 5000)
    pairs = ws.kbar_at(rows, cols)
    np.testing.assert_array_equal(pairs, dense[rows, cols])
    assert np.all(pairs[cols >= rows] == -np.inf)
    assert np.all(np.isfinite(pairs[cols < rows]))


def test_workspace_memory_bound(ou_ctx):
    # the dense matrix and one sweep's candidates took 91 MiB at 2000 nodes
    xs, ys = make_grid(ou_ctx, n_nodes=2000)
    values = np.zeros(xs.size)
    tracemalloc.start()
    try:
        ws = _Workspace(ou_ctx, xs, ys)
        intervention_operator(ou_ctx, None, values, workspace=ws,
                              targets=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert xs.size > 1990
    assert peak < 32 * 2 ** 20


# ---------------------------------------------------------------------------
# value iteration
# ---------------------------------------------------------------------------

def test_first_iterate_is_single_intervention_value(bm_ctx):
    og = value_iteration(bm_ctx, n_nodes=600, n_max=1, tol=0.0)
    # independent reconstruction: brute-force M of Phi_0 = 0, then the
    # pinned envelope
    xs, ys = og.xs, og.ys
    K = bm_ctx.problem.intervention_reward
    m = np.full(xs.size, -np.inf)
    for i in range(1, xs.size):
        cand = [float(K(xs[i], xs[j])) - float(bm_ctx.g(xs[i]))
                + float(bm_ctx.g(xs[j])) for j in range(i)]
        m[i] = max(cand) / float(bm_ctx.pair.phi(xs[i]))
    env, _ = pinned_envelope(ys[1:], m[1:], (bm_ctx.F_lo, bm_ctx.D))
    expected = np.interp(ys, np.concatenate([[bm_ctx.F_lo], ys[1:]]),
                         np.concatenate([[bm_ctx.D], env]))
    expected = np.maximum(expected, 0.0)
    np.testing.assert_allclose(og.values, expected, rtol=1e-9, atol=1e-12)


def test_value_iteration_monotone_and_converged(bm_ctx):
    og = value_iteration(bm_ctx, n_nodes=800, n_max=60, tol=1e-7)
    assert og.converged
    scale = np.max(np.abs(og.values))
    assert min(og.min_increments) >= -1e-9 * scale
    # sup change settles monotonically after the first couple of sweeps
    hist = np.array(og.history[1:])
    assert np.all(np.diff(hist) <= 1e-12 + 0.5 * hist[:-1])


def test_iterates_are_concave(bm_ctx):
    og = value_iteration(bm_ctx, n_nodes=500, n_max=40, tol=1e-7)
    ys, vals = og.ys, og.values
    slopes = np.diff(vals) / np.diff(ys)
    assert np.all(np.diff(slopes) <= 1e-9 * (1 + np.abs(slopes[:-1])))


def test_fixed_point_residual(bm_ctx):
    tol = 1e-7
    og = value_iteration(bm_ctx, n_nodes=800, n_max=80, tol=tol)
    ws = _Workspace(bm_ctx, og.xs, og.ys)
    m = intervention_operator(bm_ctx, og, workspace=ws)
    env, _ = pinned_envelope(og.ys, np.where(np.isfinite(m), m, -1e30),
                             (bm_ctx.F_lo, bm_ctx.D))
    env = np.maximum(env, 0.0)
    assert float(np.max(np.abs(env - og.values))) <= 2 * tol


def test_no_intervention_iteration(no_intervention_ctx):
    og = value_iteration(no_intervention_ctx, n_nodes=300, n_max=50,
                         tol=1e-9)
    assert og.converged
    assert og.n_iter == 1
    np.testing.assert_allclose(og.values, 0.0, atol=1e-12)


def test_triggers_bracket_direct_solution(request):
    for name in ("bm", "ou", "statevol"):
        ctx = request.getfixturevalue(f"{name}_ctx")
        scan = request.getfixturevalue(f"{name}_scan")
        og = value_iteration(ctx, n_nodes=1000, n_max=60, tol=1e-6)
        b_star = scan.policy.bands[0][1]
        i = np.searchsorted(og.xs, b_star)
        cell = og.xs[min(i + 1, og.xs.size - 1)] - og.xs[i - 1]
        assert min(abs(t - b_star) for t in og.triggers) <= cell, name


def _reference_value_iteration(ctx, n_max=500, tol=None, x_max=None):
    """Plain sweeps Phi <- max(floor, pinned_envelope(M Phi)) to a fixpoint.

    Returns the final values and the sup-change of every sweep.
    """
    tol = tol or ctx.options.oracle_tol
    xs, ys = make_grid(ctx, x_max=x_max)
    ws = _Workspace(ctx, xs, ys)
    pin = (ctx.F_lo, ctx.D)
    floor = ctx.D if ctx.absorbing else 0.0
    values = np.full(xs.shape, floor)
    history = []
    for _ in range(n_max):
        m_phi = intervention_operator(ctx, None, values, workspace=ws)
        new = np.maximum(pinned_envelope(ys, m_phi, pin)[0], floor)
        history.append(float(np.max(np.abs(new - values))))
        values = new
        if history[-1] <= tol:
            break
    return values, history


@pytest.mark.parametrize("name", ["bm", "ou", "sine", "statevol"])
def test_policy_steps_reach_sweep_fixpoint(name, request, monkeypatch):
    ctx = request.getfixturevalue(f"{name}_ctx")
    x_max = ctx.options.oracle_x_max
    og = value_iteration(ctx, x_max=x_max, keep_iterates=1)
    exact, _ = _reference_value_iteration(ctx, n_max=5000, tol=1e-12,
                                          x_max=x_max)
    scale = 1.0 + float(np.max(np.abs(exact)))
    assert og.converged and og.n_iter <= 12
    assert float(np.max(np.abs(og.values - exact))) <= 1e-9 * scale
    assert min(og.min_increments) >= -1e-9 * scale
    assert og.residual <= ctx.options.oracle_tol
    # every step's iterate dominates the plain sweep of the one before
    ws = _Workspace(ctx, og.xs, og.ys)
    floor = ctx.D if ctx.absorbing else 0.0
    before = np.full(og.xs.shape, floor)
    for _, after in og.iterates:
        m_phi = intervention_operator(ctx, None, before, workspace=ws)
        sweep = np.maximum(pinned_envelope(og.ys, m_phi, og.pin)[0], floor)
        assert np.all(after >= sweep)
        before = after

    # a singular solve leaves every step a plain sweep, silently; the
    # oracle imports spsolve from scipy when it runs
    monkeypatch.setattr(scipy.sparse.linalg, "spsolve",
                        lambda a, b: spsolve(csc_matrix(a.shape), b))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        swept = value_iteration(ctx, x_max=x_max)
    values, history = _reference_value_iteration(ctx, x_max=x_max)
    np.testing.assert_array_equal(swept.values, values)
    assert list(swept.history) == history


@pytest.mark.slow
def test_multiband_triggers(sine_ctx):
    og = value_iteration(sine_ctx, n_nodes=3000, n_max=1500, tol=1e-5)
    cell = 42.0 / 1500
    for k in range(3):
        expected = 3.52 + 4 * k * math.pi
        assert min(abs(t - expected) for t in og.triggers) \
            <= max(2 * cell, 0.02 * expected)
