import dataclasses
import math
import os

import numpy as np
import pytest

from impulse_bands import (SimConfig, SimulationError, assemble_value,
                           build_context, load_config, parse_expr,
                           policy_dominance, simulate_policy)
from impulse_bands.model import BandPolicy
from impulse_bands.simulate import _const_or_none, _worker_count


def band(*pairs):
    return BandPolicy(bands=tuple(pairs), slope=0.0, intercept=0.0,
                      fixed_point_A=(0.0, 0.0))


def test_config_validation(bm_ctx):
    with pytest.raises(SimulationError):
        SimConfig(x0=0, dt=-1e-3, horizon=1.0, n_paths=10)
    with pytest.raises(SimulationError):
        SimConfig(x0=0, dt=1e-3, horizon=1.0, n_paths=0)
    # dt must resolve the discount
    with pytest.raises(SimulationError):
        simulate_policy(bm_ctx, band(), SimConfig(
            x0=0, dt=6.0, horizon=100.0, n_paths=10))
    # horizon must discount the tail in natural mode
    with pytest.raises(SimulationError):
        simulate_policy(bm_ctx, band(), SimConfig(
            x0=0, dt=1e-2, horizon=5.0, n_paths=10))


def test_constant_drift_and_vol_read_from_the_parse():
    cubic = parse_expr("(x+1.7)*(x-0.3)*(x-2.9)", ("x",))
    assert cubic(1.0) != 0.0  # though it vanishes at x = -1.7, 0.3 and 2.9
    assert _const_or_none(cubic) is None
    assert _const_or_none(parse_expr("sigma", ("x",), {"sigma": 0.4})) == 0.4
    assert _const_or_none(parse_expr("0", ("x",))) == 0.0


def test_empty_policy_zero_reward_is_exactly_zero(no_intervention_ctx):
    res = simulate_policy(no_intervention_ctx, band(), SimConfig(
        x0=0.5, dt=1e-2, horizon=70.0, n_paths=500, seed=1))
    assert res.estimate == 0.0
    assert res.std_error == 0.0


def test_seeded_determinism(bm_ctx, bm_scan):
    cfg = SimConfig(x0=0.0, dt=5e-3, horizon=70.0, n_paths=4000, seed=77)
    r1 = simulate_policy(bm_ctx, bm_scan.policy, cfg)
    r2 = simulate_policy(bm_ctx, bm_scan.policy, cfg)
    assert r1.estimate == r2.estimate
    assert r1.std_error == r2.std_error
    assert r1.generator == "pcg64"


def test_single_path_deterministic(bm_ctx, bm_scan):
    cfg = SimConfig(x0=0.0, dt=5e-3, horizon=70.0, n_paths=1, seed=5)
    r1 = simulate_policy(bm_ctx, bm_scan.policy, cfg)
    r2 = simulate_policy(bm_ctx, bm_scan.policy, cfg)
    assert r1.estimate == r2.estimate


def test_immediate_intervention_above_trigger(bm_ctx):
    # starting above b the policy jumps at t = 0, collecting K(x0, a)
    # undiscounted; the rest of the path behaves like a start at a
    pol = band((5.0, 12.0))
    K = bm_ctx.problem.intervention_reward
    above = simulate_policy(bm_ctx, pol, SimConfig(
        x0=14.0, dt=5e-3, horizon=70.0, n_paths=3000, seed=3))
    at_target = simulate_policy(bm_ctx, pol, SimConfig(
        x0=5.0, dt=5e-3, horizon=70.0, n_paths=3000, seed=4))
    expect = float(K(14.0, 5.0)) + at_target.estimate
    noise = 3 * math.hypot(above.std_error, at_target.std_error)
    assert abs(above.estimate - expect) <= noise


def test_thread_count_does_not_change_results(sine_ctx, sine_scan,
                                              monkeypatch):
    # chunk seeds are derived from the user seed, so the worker count can
    # only change scheduling, never numbers
    cfg = SimConfig(x0=1.0, dt=1e-2, horizon=500.0, n_paths=48000, seed=31)
    monkeypatch.setenv("IMPULSE_THREADS", "1")
    serial = simulate_policy(sine_ctx, sine_scan.policy, cfg)
    for n in ("2", "3"):
        monkeypatch.setenv("IMPULSE_THREADS", n)
        threaded = simulate_policy(sine_ctx, sine_scan.policy, cfg)
        assert threaded.estimate == serial.estimate
        assert threaded.std_error == serial.std_error


def test_default_worker_count(monkeypatch):
    monkeypatch.delenv("IMPULSE_THREADS", raising=False)
    assert _worker_count(5) == min(os.cpu_count() or 1, 5)
    assert _worker_count(1) == 1
    monkeypatch.setenv("IMPULSE_THREADS", "1")
    assert _worker_count(5) == 1


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", "2"])
def test_thread_count_from_environment(monkeypatch, value):
    monkeypatch.setenv("IMPULSE_THREADS", value)
    if value == "2":
        assert _worker_count(5) == 2
        return
    with pytest.raises(SimulationError, match="IMPULSE_THREADS"):
        _worker_count(5)


def test_identical_policies_tie_exactly(bm_ctx, bm_scan):
    cfg = SimConfig(x0=0.0, dt=5e-3, horizon=70.0, n_paths=2000, seed=11)
    rep = policy_dominance(bm_ctx, bm_scan.policy, bm_scan.policy, cfg)
    assert rep.diff_mean == 0.0
    assert rep.diff_std_error == 0.0
    assert rep.dominated


@pytest.mark.slow
def test_estimate_matches_value(bm_ctx, bm_scan):
    vrep = assemble_value(bm_ctx, bm_scan.policy)
    cfg = SimConfig(x0=0.0, dt=2e-3, horizon=70.0, n_paths=20000, seed=42)
    res = simulate_policy(bm_ctx, bm_scan.policy, cfg)
    assert abs(res.estimate - vrep.value(0.0)) <= 3 * res.std_error
    assert res.censored_fraction == 0.0


@pytest.mark.slow
def test_dt_halving_consistency(bm_ctx, bm_scan):
    base = dict(x0=0.0, horizon=70.0, n_paths=15000)
    r1 = simulate_policy(bm_ctx, bm_scan.policy,
                         SimConfig(dt=4e-3, seed=13, **base))
    r2 = simulate_policy(bm_ctx, bm_scan.policy,
                         SimConfig(dt=2e-3, seed=14, **base))
    pooled = math.hypot(r1.std_error, r2.std_error)
    assert abs(r1.estimate - r2.estimate) <= 2 * pooled


@pytest.mark.slow
def test_suboptimal_band_dominated(bm_ctx, bm_scan):
    cfg = SimConfig(x0=0.0, dt=4e-3, horizon=70.0, n_paths=8000, seed=21)
    rep = policy_dominance(bm_ctx, bm_scan.policy, band((4.0, 11.0)), cfg)
    assert rep.dominated


@pytest.mark.slow
def test_ou_estimate_bounded_by_value(ou_ctx, ou_scan):
    vrep = assemble_value(ou_ctx, ou_scan.policy)
    cfg = SimConfig(x0=0.4, dt=2e-3, horizon=135.0, n_paths=8000, seed=17)
    res = simulate_policy(ou_ctx, ou_scan.policy, cfg)
    v = vrep.value(0.4)
    assert res.estimate <= v + 3 * res.std_error
    assert abs(res.estimate - v) <= 3 * res.std_error


@pytest.mark.slow
def test_multiband_dominates_single_band(sine_ctx, sine_scan):
    # starting between bands, hopping down the ladder beats jumping
    # straight to the lowest target
    cfg = SimConfig(x0=10.0, dt=1e-2, horizon=4000.0, n_paths=1500, seed=29)
    single = band(sine_scan.policy.bands[0])
    rep = policy_dominance(sine_ctx, sine_scan.policy, single, cfg)
    assert rep.dominated
    assert rep.result_alt.estimate < rep.result_opt.estimate
    # both runs end by absorption, not by the horizon
    assert rep.result_opt.censored_fraction < 0.05


# ---------------------------------------------------------------------------
# The per-trigger loop as reference for the cell-exit kernel
# ---------------------------------------------------------------------------

def _reference_chunk(ctx, policy, cfg, n, rng):
    """Every path tested against every trigger in every step.

    Also returns the most triggers one path crossed in one step.
    """
    d = ctx.problem.diffusion
    alpha = d.alpha
    mu_c = _const_or_none(d.drift)
    sig_c = _const_or_none(d.vol)
    mu, sig = d.drift, d.vol
    f = ctx.problem.running_reward
    f_is_zero = ctx.g_provenance == "zero"
    P = ctx.problem.ruin_penalty
    lo = d.lo
    absorbing = ctx.absorbing
    x_span = ctx.window[1] - ctx.window[0]
    censor_hi = ctx.window[1] + 0.75 * x_span
    censor_lo = ctx.window[0] - 0.75 * x_span

    triggers = np.array(policy.triggers, dtype=float)
    targets = np.array(policy.targets, dtype=float)
    K = ctx.problem.intervention_reward
    k_at_barrier = np.array(
        [float(K(b, a)) for a, b in policy.bands], dtype=float)

    sqdt = math.sqrt(cfg.dt)
    decay = math.exp(-alpha * cfg.dt)
    n_steps = int(math.ceil(cfg.horizon / cfg.dt))

    x = np.full(n, float(cfg.x0))
    pay = np.zeros(n)
    idx = np.arange(n)
    payoff = np.zeros(n)
    censored = np.zeros(n, dtype=bool)
    absorbed = np.zeros(n, dtype=bool)
    most = 0

    if triggers.size:
        m = x >= triggers[-1]
        if np.any(m):
            pay[m] += np.asarray(K(x[m], targets[-1]), dtype=float)
            x[m] = targets[-1]

    disc = 1.0
    for _ in range(n_steps):
        m = x.size
        if m == 0:
            break
        if not f_is_zero:
            pay += (disc * cfg.dt) * np.asarray(f(x), dtype=float)
        z = rng.standard_normal(m)
        drift_term = (mu_c * cfg.dt) if mu_c is not None \
            else np.asarray(mu(x), dtype=float) * cfg.dt
        if sig_c is not None:
            x_new = x + drift_term + (sig_c * sqdt) * z
        else:
            x_new = x + drift_term + np.asarray(sig(x), dtype=float) * sqdt * z

        dead = None
        if absorbing:
            hit = x_new <= lo
            if np.any(hit):
                denom = x[hit] - x_new[hit]
                theta = np.where(denom > 0, (x[hit] - lo) / denom, 0.0)
                pay[hit] += (disc * P) * decay ** theta
                dead = hit
                absorbed[idx[hit]] = True

        n_crossed = np.zeros(m, dtype=int)
        for k in range(triggers.size):
            b = triggers[k]
            crossed = (x < b) != (x_new < b)
            if dead is not None:
                crossed &= ~dead
            if not np.any(crossed):
                continue
            n_crossed += crossed
            denom = x_new[crossed] - x[crossed]
            theta = np.where(np.abs(denom) > 0,
                             (b - x[crossed]) / denom, 0.0)
            pay[crossed] += (disc * k_at_barrier[k]) * decay ** theta
            x_new[crossed] = targets[k]
        most = max(most, int(n_crossed.max()))

        if not absorbing:
            wild = (x_new > censor_hi) | (x_new < censor_lo)
            if np.any(wild):
                dead = wild if dead is None else (dead | wild)
                censored[idx[wild]] = True

        if dead is not None:
            payoff[idx[dead]] = pay[dead]
            keep = ~dead
            x, pay, idx = x_new[keep], pay[keep], idx[keep]
        else:
            x = x_new
        disc *= decay

    payoff[idx] = pay
    if absorbing:
        censored[idx] = True
    return payoff, np.sum(censored) / n, np.sum(absorbed) / n, most


def _context(text):
    cfg = load_config(text)
    return build_context(cfg.problem, cfg.solver)


PENALTY_CONFIG = """
[diffusion]
drift = "0"
vol = "1"
alpha = 0.1
lo = 0
hi = inf
boundary = "absorbing"
penalty = -2.0

[reward]
f = "0"
K = "x - y - 0.5"

[solver]
x_max = 10
"""

STATEVOL_CONFIG = """
[diffusion]
drift = "delta*(m - x)"
vol = "sigma*(1 + 0.2*x)"
alpha = 0.105
lo = 0
hi = inf
boundary = "absorbing"
penalty = 0.0

[reward]
f = "-0.02*x"
K = "k*(x - y)^gamma - Kfix"

[params]
delta = 0.1
m = 0.9
sigma = 0.35
k = 0.7
Kfix = 0.1
gamma = 0.75

[solver]
x_max = 2.5
"""


def _lands_on_lo(ctx):
    # drift -1 and no volatility take a path from 0.25 exactly onto the
    # absorbing point 0 in its one step of 0.25, which must absorb it
    d = dataclasses.replace(ctx.problem.diffusion,
                            drift=parse_expr("-1", ("x",)),
                            vol=parse_expr("0", ("x",)))
    return dataclasses.replace(
        ctx, problem=dataclasses.replace(ctx.problem, diffusion=d))


def _ladder():
    # triggers 0.1 apart: a first step at dt = 0.05 (sd 0.22) from 0.25
    # often falls below 0.1, and its crossing of 0.2 reads the target 0.0
    # that its crossing of 0.1 left
    return band((0.0, 0.1), (0.1, 0.2), (0.2, 0.3))


# name -> (context, policy, SimConfig) and what the case must exercise,
# read from (SimResult, most triggers one path crossed in one step)
KERNEL_CASES = {
    "sine_7_bands": (
        lambda fx: (fx("sine_ctx"), fx("sine_scan").policy,
                    SimConfig(x0=10.0, dt=0.05, horizon=400.0, n_paths=300,
                              seed=8)),
        lambda res, most: res.absorbed_fraction > 0 and most >= 1),
    "two_triggers_in_one_step": (
        lambda fx: (fx("bm_ctx"), _ladder(),
                    SimConfig(x0=0.25, dt=0.05, horizon=70.0, n_paths=300,
                              seed=16)),
        lambda res, most: most >= 2),
    "absorbing_penalty": (
        lambda fx: (_context(PENALTY_CONFIG), band((1.0, 2.5)),
                    SimConfig(x0=1.0, dt=1e-2, horizon=30.0, n_paths=1000,
                              seed=9)),
        lambda res, most: res.absorbed_fraction > 0),
    "natural_censored": (
        lambda fx: (fx("no_intervention_ctx"), band((0.0, 5.0)),
                    SimConfig(x0=0.0, dt=1e-2, horizon=70.0, n_paths=2000,
                              seed=10)),
        lambda res, most: res.censored_fraction > 0),
    "x0_above_top": (
        lambda fx: (fx("bm_ctx"), band((5.0, 12.0)),
                    SimConfig(x0=14.0, dt=1e-2, horizon=70.0, n_paths=400,
                              seed=11)),
        lambda res, most: most >= 1),
    "empty_policy": (
        lambda fx: (fx("bm_ctx"), band(),
                    SimConfig(x0=0.0, dt=1e-2, horizon=70.0, n_paths=400,
                              seed=12)),
        lambda res, most: res.estimate != 0.0),
    "statevol_reserve": (
        lambda fx: (_context(STATEVOL_CONFIG), band((0.17, 0.58)),
                    SimConfig(x0=0.4, dt=2e-3, horizon=6.0, n_paths=2000,
                              seed=13)),
        lambda res, most: res.absorbed_fraction > 0 and most >= 1),
    "trigger_beyond_censoring": (
        lambda fx: (fx("no_intervention_ctx"),
                    band((-30.0, -25.0), (0.0, 5.0)),
                    SimConfig(x0=0.0, dt=1e-2, horizon=70.0, n_paths=2000,
                              seed=14)),
        lambda res, most: res.censored_fraction > 0),
    "lands_on_lo": (
        lambda fx: (_lands_on_lo(_context(PENALTY_CONFIG)), band((1.0, 2.5)),
                    SimConfig(x0=0.25, dt=0.25, horizon=0.25, n_paths=5,
                              seed=15)),
        lambda res, most: res.absorbed_fraction == 1.0),
}


@pytest.mark.parametrize("name", list(KERNEL_CASES))
def test_kernel_matches_reference_loop(name, request):
    build, exercised = KERNEL_CASES[name]
    ctx, policy, cfg = build(request.getfixturevalue)
    res, pay = simulate_policy(ctx, policy, cfg, return_payoffs=True)
    seed = np.random.SeedSequence(cfg.seed).spawn(1)[0]
    ref_pay, ref_censored, ref_absorbed, most = _reference_chunk(
        ctx, policy, cfg, cfg.n_paths,
        np.random.Generator(np.random.PCG64(seed)))
    assert pay.tobytes() == ref_pay.tobytes()
    assert res.censored_fraction == ref_censored
    assert res.absorbed_fraction == ref_absorbed
    assert exercised(res, most)
