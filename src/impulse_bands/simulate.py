"""Monte Carlo evaluation of band policies.

Euler-Maruyama paths with barrier-touch intervention semantics: whenever a
path reaches a trigger b_k (from either side), the state jumps to the
matching target a_k and the intervention reward accrues at the barrier
value, with the crossing instant linearly interpolated inside the step.  A
state at or above the top trigger is intervened immediately.  In absorbing
mode, crossing the absorbing point collects the ruin penalty and ends the
path.  Running reward accrues by the left-endpoint rule.

Each path keeps the two edges of its cell, the interval between
consecutive triggers (the lowest cell starts just above the absorbing
point, or at the lower censoring bound; the highest ends at the upper
one).  A step makes one test per path, and only the paths that left their
cell go through absorption, the triggers in increasing order and
censoring, so a second trigger crossed in one step is tested against the
target the first jump left.  A path that stays in its cell can meet none
of these events, so the payoffs equal those of testing every trigger on
every path.

RNG: numpy PCG64, split per path chunk from the user seed, so estimates
are bit-identical for a fixed (config, policy) regardless of chunking
order, and common random numbers across policies come from reusing a seed.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import SimulationError

RNG_NAME = "pcg64"
_CHUNK = 20_000


@dataclass(frozen=True)
class SimConfig:
    """Path discretization and sampling sizes."""

    x0: float
    dt: float
    horizon: float
    n_paths: int
    seed: int = 0

    def __post_init__(self):
        for name in ("x0", "dt", "horizon"):
            if not math.isfinite(getattr(self, name)):
                raise SimulationError(
                    f"{name} must be finite, got {getattr(self, name)!r}")
        if self.dt <= 0 or self.horizon <= 0:
            raise SimulationError("dt and horizon must be positive")
        if self.n_paths < 1:
            raise SimulationError("need at least one path")
        if self.seed < 0:
            raise SimulationError("seed must be unsigned")


def validate_sim(ctx, cfg):
    alpha = ctx.alpha
    if alpha > 0 and cfg.dt >= 1.0 / alpha:
        raise SimulationError("dt must resolve the discount: dt < 1/alpha")
    if not ctx.absorbing:
        if alpha <= 0:
            raise SimulationError("zero discount needs an absorbing boundary")
        if math.exp(-alpha * cfg.horizon) >= 1e-6:
            raise SimulationError(
                "horizon too short: exp(-alpha T) must be below 1e-6 "
                "unless an absorbing boundary terminates paths")


@dataclass(frozen=True)
class SimResult:
    estimate: float
    std_error: float
    n_paths: int
    seed: int
    generator: str
    censored_fraction: float
    absorbed_fraction: float


def _const_or_none(expr):
    """The value of a one-variable expression that reads no variable,
    otherwise None."""
    return None if expr.reads_all else expr(0.0)


def _simulate_chunk(ctx, policy, cfg, n, rng):
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
    k_at_barrier = np.array([K(b, a) for a, b in policy.bands], dtype=float)

    sqdt = math.sqrt(cfg.dt)
    decay = math.exp(-alpha * cfg.dt)
    n_steps = int(math.ceil(cfg.horizon / cfg.dt))

    # active-path arrays plus an index into the full payoff vector
    x = np.full(n, float(cfg.x0))
    pay = np.zeros(n)
    idx = np.arange(n)
    payoff = np.zeros(n)
    censored = np.zeros(n, dtype=bool)
    absorbed = np.zeros(n, dtype=bool)

    if triggers.size:
        # at/above the top trigger the policy acts at once
        m = x >= triggers[-1]
        if np.any(m):
            pay[m] += K(x[m], targets[-1])
            x[m] = targets[-1]

    # cell edges clipped to [floor, ceiling], so that a step ending inside
    # its cell is neither absorbed nor censored wherever the triggers lie
    if absorbing:
        floor, ceiling = np.nextafter(lo, math.inf), math.inf
    else:
        floor, ceiling = censor_lo, np.nextafter(censor_hi, math.inf)
    edges = np.clip(np.concatenate(([floor], triggers, [ceiling])),
                    floor, ceiling)
    cell = np.searchsorted(triggers, x, "right")
    lower, upper = edges[cell], edges[cell + 1]

    disc = 1.0
    for _ in range(n_steps):
        m = x.size
        if m == 0:
            break
        if not f_is_zero:
            pay += (disc * cfg.dt) * f(x)
        z = rng.standard_normal(m)
        drift_term = (mu_c * cfg.dt) if mu_c is not None else mu(x) * cfg.dt
        if sig_c is not None:
            x_new = x + drift_term + (sig_c * sqdt) * z
        else:
            x_new = x + drift_term + sig(x) * sqdt * z

        inside = (x_new >= lower) & (x_new < upper)
        if not inside.all():
            # only the paths that left their cell can meet an event
            j = np.flatnonzero(~inside)
            xj, xn, pj = x[j], x_new[j], pay[j]
            dead = None
            if absorbing:
                hit = xn <= lo
                if hit.any():
                    denom = xj[hit] - xn[hit]
                    theta = np.where(denom > 0, (xj[hit] - lo) / denom, 0.0)
                    pj[hit] += (disc * P) * decay ** theta
                    dead = hit
                    absorbed[idx[j[hit]]] = True

            for k in range(triggers.size):
                b = triggers[k]
                crossed = (xj < b) != (xn < b)
                if dead is not None:
                    crossed &= ~dead
                if not crossed.any():
                    continue
                denom = xn[crossed] - xj[crossed]
                theta = np.where(np.abs(denom) > 0,
                                 (b - xj[crossed]) / denom, 0.0)
                pj[crossed] += (disc * k_at_barrier[k]) * decay ** theta
                xn[crossed] = targets[k]

            if not absorbing:
                wild = (xn > censor_hi) | (xn < censor_lo)
                if wild.any():
                    dead = wild if dead is None else (dead | wild)
                    censored[idx[j[wild]]] = True

            pay[j] = pj
            x_new[j] = xn
            cell = np.searchsorted(triggers, xn, "right")
            lower[j], upper[j] = edges[cell], edges[cell + 1]
            if dead is not None:
                gone = j[dead]
                payoff[idx[gone]] = pay[gone]
                keep = np.ones(m, dtype=bool)
                keep[gone] = False
                x_new, pay, idx = x_new[keep], pay[keep], idx[keep]
                lower, upper = lower[keep], upper[keep]
        x = x_new
        disc *= decay

    payoff[idx] = pay
    if absorbing:
        censored[idx] = True  # ran into the horizon before absorbing
    n_censored = int(np.sum(censored))
    n_absorbed = int(np.sum(absorbed))
    return payoff, n_censored / n, n_absorbed / n


def _worker_count(n_chunks):
    """IMPULSE_THREADS when set, which must then be a positive integer;
    otherwise one worker per core, at most one per chunk.  Each chunk owns
    its seed, so the count never moves a result."""
    env = os.environ.get("IMPULSE_THREADS", "")
    if not env:
        return min(os.cpu_count() or 1, n_chunks)
    try:
        n = int(env)
    except ValueError:
        n = 0
    if n < 1:
        raise SimulationError(
            f"IMPULSE_THREADS must be a positive integer, got {env!r}")
    return n


def simulate_policy(ctx, policy, cfg, n_workers=None, return_payoffs=False):
    """Sample mean and standard error of the discounted payoff under
    ``policy`` from ``cfg.x0``; deterministic for a fixed seed."""
    validate_sim(ctx, cfg)
    n_chunks = max(1, math.ceil(cfg.n_paths / _CHUNK))
    n_workers = n_workers or _worker_count(n_chunks)
    sizes = [cfg.n_paths // n_chunks] * n_chunks
    for i in range(cfg.n_paths - sum(sizes)):
        sizes[i] += 1
    seeds = np.random.SeedSequence(cfg.seed).spawn(n_chunks)

    def run(i):
        rng = np.random.Generator(np.random.PCG64(seeds[i]))
        return _simulate_chunk(ctx, policy, cfg, sizes[i], rng)

    if n_workers > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(run, range(n_chunks)))
    else:
        results = [run(i) for i in range(n_chunks)]

    payoffs = np.concatenate([r[0] for r in results])
    censored = float(np.sum([r[1] * s for r, s in zip(results, sizes)]) / cfg.n_paths)
    absorbed = float(np.sum([r[2] * s for r, s in zip(results, sizes)]) / cfg.n_paths)
    est = float(np.mean(payoffs))
    se = float(np.std(payoffs, ddof=1) / math.sqrt(cfg.n_paths)) \
        if cfg.n_paths > 1 else 0.0
    result = SimResult(
        estimate=est, std_error=se, n_paths=cfg.n_paths, seed=cfg.seed,
        generator=RNG_NAME, censored_fraction=censored,
        absorbed_fraction=absorbed)
    if return_payoffs:
        return result, payoffs
    return result


@dataclass(frozen=True)
class DominanceReport:
    result_opt: SimResult
    result_alt: SimResult
    diff_mean: float      # alt - opt under common random numbers
    diff_std_error: float
    dominated: bool


def policy_dominance(ctx, policy_opt, policy_alt, cfg, n_workers=None):
    """Common-random-numbers comparison; alt should not beat opt.

    ``dominated`` holds when J(alt) <= J(opt) + 3 pooled standard errors of
    the paired difference.
    """
    res_opt, pay_opt = simulate_policy(
        ctx, policy_opt, cfg, n_workers=n_workers, return_payoffs=True)
    res_alt, pay_alt = simulate_policy(
        ctx, policy_alt, cfg, n_workers=n_workers, return_payoffs=True)
    diff = pay_alt - pay_opt
    diff_mean = float(np.mean(diff))
    diff_se = float(np.std(diff, ddof=1) / math.sqrt(diff.size)) \
        if diff.size > 1 else 0.0
    return DominanceReport(
        result_opt=res_opt, result_alt=res_alt,
        diff_mean=diff_mean, diff_std_error=diff_se,
        dominated=bool(diff_mean <= 3.0 * diff_se))
