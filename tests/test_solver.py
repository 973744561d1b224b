import dataclasses
import math

import numpy as np
import pytest

from impulse_bands import (NoIntervention, SolverError, assemble_value,
                           build_context, scan_slopes, smooth_fit_check,
                           solve_gamma, tangency_solve)
from impulse_bands.checks import check_f_concavity
from impulse_bands.oracle import pinned_envelope
from impulse_bands.solver import (_tangency_residual, _target_grid,
                                  stopping_grid, stopping_value)


# ---------------------------------------------------------------------------
# stage one
# ---------------------------------------------------------------------------

def test_tangency_at_published_target(bm_ctx):
    st = tangency_solve(bm_ctx, 5.077)
    assert st.b == pytest.approx(12.261, rel=1e-2)
    assert st.beta == pytest.approx(0.0492, rel=1e-2)
    assert abs(st.tangency_residual) <= 1e-10
    assert st.n_tangency_roots == 1 and not st.multi_trigger


def test_tangency_value_matching(bm_ctx):
    # the line through the pin meets the shifted curve at the trigger
    st = tangency_solve(bm_ctx, 5.077)
    pair = bm_ctx.pair
    lhs = float(pair.phi(st.b)) * float(bm_ctx.line(pair.F(st.b), st.beta))
    rhs = float(bm_ctx.kbar(st.b, 5.077)) \
        + float(pair.phi(5.077)) * float(bm_ctx.line(pair.F(5.077), st.beta))
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_tangency_ou(ou_ctx):
    st = tangency_solve(ou_ctx, 0.2192)
    assert st.b == pytest.approx(0.6220, rel=1e-2)
    assert st.beta == pytest.approx(0.5749, rel=1e-2)


@pytest.mark.parametrize("name", ["bm", "ou", "sine", "statevol"])
def test_bands_meet_the_first_order_conditions(name, request):
    ctx = request.getfixturevalue(f"{name}_ctx")
    scan = request.getfixturevalue(f"{name}_scan")
    assert scan.stages
    for st in scan.stages:
        assert abs(st.tangency_residual) <= 1e-10
        # the residual is the one the root-finder drove to zero
        resid = _tangency_residual(ctx, st.b, st.a, st.beta)
        assert float(resid) == st.tangency_residual
    # every bracket of both stages showed a sign change
    assert not any("sign change" in w for w in scan.warnings)


def test_scan_prices_the_pair_a_bounded_number_of_times(ou_cfg, ou_ctx):
    # golden-section search made 1078 vector evaluations of the pair per
    # scan on this config; the first-order conditions take a few dozen
    calls = dict.fromkeys(("psi", "phi", "dpsi", "dphi"), 0)

    def counted(name):
        fn = getattr(ou_ctx.pair, name)

        def call(x):
            calls[name] += 1
            return fn(x)
        return call

    pair = dataclasses.replace(
        ou_ctx.pair, **{name: counted(name) for name in calls})
    ctx = build_context(ou_cfg.problem, ou_cfg.solver, pair=pair)
    calls.update(dict.fromkeys(calls, 0))
    scan = scan_slopes(ctx)
    assert len(scan.policy.bands) == 1
    assert max(calls.values()) < 200, calls


def test_no_intervention_signal(no_intervention_ctx):
    with pytest.raises(NoIntervention):
        tangency_solve(no_intervention_ctx, 1.0)
    with pytest.raises(NoIntervention):
        solve_gamma(no_intervention_ctx, 1.0)


# ---------------------------------------------------------------------------
# gamma fixed point
# ---------------------------------------------------------------------------

def test_gamma_fixed_point_matches_tangency(bm_ctx):
    st = tangency_solve(bm_ctx, 5.077)
    gamma = solve_gamma(bm_ctx, 5.077)
    assert gamma == pytest.approx(st.gamma, rel=1e-4)
    # published-value cross-check: gamma* = beta* psi(a*)
    assert gamma == pytest.approx(0.0492 * math.exp(5.077 * math.sqrt(0.4)),
                                  rel=1e-2)
    # self-consistency of the fixed point
    v = stopping_value(bm_ctx, 5.077, gamma)
    assert abs(v - gamma) <= 1e-6 * (1 + abs(gamma))


def test_gamma_contraction(bm_ctx):
    v0 = stopping_value(bm_ctx, 5.077, 0.0)
    for delta in (0.1, 1.0, 10.0):
        vd = stopping_value(bm_ctx, 5.077, delta)
        assert vd - v0 <= delta + 1e-7


def test_gamma_map_single_sign_change(bm_ctx):
    a = 4.0
    gstar = solve_gamma(bm_ctx, a)
    gammas = np.linspace(0.0, 3.0 * gstar, 40)
    vals = np.array([stopping_value(bm_ctx, a, g) - g for g in gammas])
    signs = np.sign(vals[np.abs(vals) > 1e-12])
    assert int(np.sum(np.diff(signs) != 0)) == 1


def test_sign_change_check_reports_solver_errors_only(bm_ctx, monkeypatch):
    from impulse_bands import checks, solver

    def fails(exc):
        def solve_gamma(*args, **kwargs):
            raise exc
        return solve_gamma

    monkeypatch.setattr(solver, "solve_gamma", fails(SolverError("no root")))
    res = checks.check_gamma_sign_change(bm_ctx, [4.0, 5.0])
    assert not res.passed
    assert "solve failed" in res.detail

    monkeypatch.setattr(solver, "solve_gamma", fails(TypeError("bug")))
    with pytest.raises(TypeError, match="bug"):
        checks.check_gamma_sign_change(bm_ctx, [4.0, 5.0])


def _reference_stopping_value(ctx, a, gamma, grid):
    """The full pinned concave envelope of the shifted reward over the stop
    states, read at F(a): the reference for the closed form."""
    xs, ys = grid
    mask = xs >= a
    if np.count_nonzero(mask) < 2:
        raise SolverError(f"target a={a} leaves no room for a trigger")
    xs_m, ys_m = xs[mask], ys[mask]
    H = (ctx.kbar(xs_m, float(a)) + gamma) / ctx.pair.phi(xs_m)
    env, _ = pinned_envelope(ys_m, H, (ctx.F_lo, ctx.D))
    hull_y = np.concatenate([[ctx.F_lo], ys_m])
    hull_v = np.concatenate([[ctx.D], env])
    w_at_a = float(np.interp(float(ctx.pair.F(a)), hull_y, hull_v))
    return float(ctx.pair.phi(a)) * w_at_a


def _reference_solve_gamma(ctx, a, grid, rel=1e-8):
    """Bracket doubling and bisection on V - gamma to rel (1 + gamma): the
    reference for the closed-form root."""
    xs, _ = grid
    above = xs[xs >= a]
    if above.size == 0 or float(np.max(ctx.kbar(above, a))) <= 0.0:
        raise NoIntervention

    def gap(gamma):
        return _reference_stopping_value(ctx, a, gamma, grid) - gamma

    g0 = gap(0.0)
    if g0 <= 0.0:
        raise NoIntervention
    hi = max(1.0, 2.0 * g0)
    for _ in range(200):
        if gap(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise SolverError("gamma bracket did not close")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rel * (1.0 + abs(mid)):
            break
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize(
    "name", ["bm_ctx", "ou_ctx", "sine_ctx", "statevol_ctx"])
def test_closed_form_gamma_matches_envelope_route(name, request):
    ctx = request.getfixturevalue(name)
    grid = stopping_grid(ctx)
    xs = grid[0]
    scan = _target_grid(ctx)
    nodes = xs[(xs > scan[0]) & (xs < scan[-1])]
    targets = np.concatenate([
        scan[:: max(1, scan.size // 12)],
        nodes[np.linspace(0, nodes.size - 1, 12).astype(int)]])
    assert np.isin(targets, xs).sum() >= 12  # grid-node targets covered
    solved = 0
    for a in targets:
        try:
            ref = _reference_solve_gamma(ctx, a, grid)
        except NoIntervention:
            with pytest.raises(NoIntervention):
                solve_gamma(ctx, a, grid=grid)
            ref = None
        if ref is not None:
            assert abs(solve_gamma(ctx, a, grid=grid) - ref) \
                <= 1e-8 * (1.0 + ref)
            solved += 1
        scale = 1.0 if ref is None else 1.0 + ref
        gammas = scale * np.array([0.0, 0.1, 0.5, 0.9, 1.0, 1.1, 2.5, 10.0])
        vals = stopping_value(ctx, a, gammas, grid=grid)
        singles = [stopping_value(ctx, a, float(g), grid=grid)
                   for g in gammas]
        assert all(isinstance(v, float) for v in singles)
        assert vals.tobytes() == np.array(singles).tobytes()
        refs = np.array([_reference_stopping_value(ctx, a, g, grid)
                         for g in gammas])
        np.testing.assert_allclose(vals, refs, rtol=1e-14, atol=0.0)
    assert solved >= 8


# ---------------------------------------------------------------------------
# stage two and the assembled value
# ---------------------------------------------------------------------------

def test_scan_finds_single_band(bm_scan):
    p = bm_scan.policy
    assert len(p.bands) == 1
    assert not bm_scan.no_intervention
    # slope dominance over the entire scan
    finite = np.isfinite(bm_scan.scan_beta)
    assert np.all(bm_scan.scan_beta[finite] <= p.slope * (1 + 1e-9))


def test_scan_multiband_structure(sine_scan):
    p = sine_scan.policy
    assert len(p.bands) >= 3
    for (a1, b1), (a2, b2) in zip(p.bands[:-1], p.bands[1:]):
        assert b1 <= a2
        # periodic structure: consecutive bands are one period apart
        assert a2 - a1 == pytest.approx(2 * math.pi, abs=0.02)
    for st in sine_scan.stages:
        assert st.beta == pytest.approx(p.slope, rel=1e-4)


def test_scan_finds_seventh_sine_band(sine_scan):
    # the target grid reaches x_max - margin, so the band at a7 ~ 40.46,
    # above x_max - 5 % of the span, is found
    p = sine_scan.policy
    assert len(p.bands) == 7
    a1, b1 = p.bands[0]
    for k, (a, b) in enumerate(p.bands):
        assert a == pytest.approx(a1 + 2 * math.pi * k, rel=1e-6)
        assert b == pytest.approx(b1 + 2 * math.pi * k, rel=1e-6)


def test_no_intervention_policy(no_intervention_ctx):
    p = scan_slopes(no_intervention_ctx).policy
    assert p.is_empty
    assert p.slope == 0.0
    v = assemble_value(no_intervention_ctx, p)
    xs = np.linspace(-5, 5, 11)
    np.testing.assert_allclose(v.value(xs), 0.0, atol=1e-12)  # v = g = 0


def test_value_function_continuity(bm_ctx, bm_scan):
    vrep = assemble_value(bm_ctx, bm_scan.policy)
    for a, b in bm_scan.policy.bands:
        assert vrep.value(b - 1e-9) == pytest.approx(
            vrep.value(b + 1e-9), rel=1e-6)


def test_value_closed_form(bm_ctx, bm_scan):
    # v(x) = beta* e^{x sqrt(2 alpha)} - (x^2/alpha + 1/alpha^2) before b*
    vrep = assemble_value(bm_ctx, bm_scan.policy)
    assert vrep.value(0.0) == pytest.approx(-24.95, abs=2e-3)
    beta = bm_scan.policy.slope
    s = math.sqrt(0.4)
    for x in (-3.0, 0.0, 4.0, 10.0):
        closed = beta * math.exp(s * x) - (x * x / 0.2 + 25.0)
        assert vrep.value(x) == pytest.approx(closed, rel=1e-10)


def test_value_beyond_trigger_shifts_like_k(bm_ctx, bm_scan):
    vrep = assemble_value(bm_ctx, bm_scan.policy)
    a, b = bm_scan.policy.bands[-1]
    K = bm_ctx.problem.intervention_reward
    for x in (b + 0.5, b + 2.0, b + 5.0):
        lhs = vrep.value(x) - vrep.value(b)
        rhs = float(K(x, a)) - float(K(b, a))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_absorbing_value_at_ruin_is_penalty(ou_ctx, ou_scan, sine_ctx,
                                            sine_scan):
    v2 = assemble_value(ou_ctx, ou_scan.policy)
    assert v2.value(0.0) == pytest.approx(0.0, abs=1e-12)
    v3 = assemble_value(sine_ctx, sine_scan.policy)
    assert v3.value(0.0) == pytest.approx(0.0, abs=1e-12)


def test_smooth_fit(bm_ctx, bm_scan, ou_ctx, ou_scan):
    for ctx, scan in ((bm_ctx, bm_scan), (ou_ctx, ou_scan)):
        vrep = assemble_value(ctx, scan.policy)
        b = scan.policy.bands[-1][1]
        gap = smooth_fit_check(vrep, b)
        assert gap <= 1e-3 * abs(vrep.derivative(b - 1e-6))


def test_intervention_piece_slope(bm_ctx, bm_scan):
    # beyond the trigger the derivative is the x-partial of K: -lambda
    vrep = assemble_value(bm_ctx, bm_scan.policy)
    b = bm_scan.policy.bands[-1][1]
    assert vrep.derivative(b + 1.0) == pytest.approx(-50.0, rel=1e-6)


def test_value_pieces_description(bm_ctx, bm_scan):
    vrep = assemble_value(bm_ctx, bm_scan.policy)
    pieces = vrep.pieces()
    assert [p["kind"] for p in pieces] == ["continuation", "intervention"]
    a, b = bm_scan.policy.bands[-1]
    assert pieces[0]["x_range"][1] == b
    assert pieces[1]["target"] == a
    assert pieces[1]["base_value"] == pytest.approx(vrep.value(a), rel=1e-12)


def test_f_concavity_of_value(bm_ctx, bm_scan):
    # chord test for (v - g)/phi in the transformed coordinate
    vrep = assemble_value(bm_ctx, bm_scan.policy)
    rng = np.random.default_rng(8)

    def W(x):
        return (vrep.value(x) - float(bm_ctx.g(x))) / float(bm_ctx.pair.phi(x))

    for _ in range(200):
        xs = np.sort(rng.uniform(-15.0, 14.5, 3))
        ys = np.asarray(bm_ctx.pair.F(xs), dtype=float)
        if ys[2] - ys[0] < 1e-12:
            continue
        w = [W(float(x)) for x in xs]
        chord = w[0] + (w[2] - w[0]) * (ys[1] - ys[0]) / (ys[2] - ys[0])
        assert w[1] >= chord - 1e-8


def test_f_concavity_check_at_rounding_level(ou_ctx, ou_scan):
    # the check reads F and the excess value at the sampled states
    # themselves, so its chord excess is rounding error alone
    vrep = assemble_value(ou_ctx, ou_scan.policy)
    res = check_f_concavity(ou_ctx, vrep, tol=1e-14)
    assert res.passed, res.detail


def test_linearity_on_continuation(bm_ctx, bm_scan):
    vrep = assemble_value(bm_ctx, bm_scan.policy)
    b = bm_scan.policy.bands[0][1]
    xs = np.linspace(-15.0, b, 200)
    ys = np.asarray(bm_ctx.pair.F(xs), dtype=float)
    W = (vrep.value(xs) - np.asarray(bm_ctx.g(xs), dtype=float)) \
        / np.asarray(bm_ctx.pair.phi(xs), dtype=float)
    coef = np.polynomial.polynomial.polyfit(ys, W, 1)
    assert np.max(np.abs(W - coef[0] - coef[1] * ys)) <= 1e-9
