"""Command-line front end: solve | iterate | simulate | check.

Exit codes: 0 success, 1 config error, 2 solver/oracle failure,
3 property-check failure.  CSV outputs use a header row, comma delimiter
and 17-significant-digit scientific notation so doubles round-trip
losslessly; simulation outputs additionally record the generator name and
seed in leading comment lines.  Simulation runs one worker per core, at
most one per path chunk; IMPULSE_THREADS sets the count instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, ImpulseError, SimulationError
from .model import BandPolicy, load_config
from .oracle import value_iteration
from .simulate import SimConfig, simulate_policy
from .solver import assemble_value, scan_slopes, smooth_fit_check
from .transform import build_context

_FMT = "%.16e"


def _write_csv(path, header, columns):
    """One row per index of the equally long columns, below a header."""
    np.savetxt(path, np.column_stack(columns), fmt=_FMT, delimiter=",",
               header=",".join(header), comments="")


def _config_hash(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report_lines(title, sections):
    lines = [f"# {title}", f"tool_version = {__version__}"]
    for name, rows in sections:
        lines.append("")
        lines.append(f"[{name}]")
        for key, value in rows:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _load(args):
    text = Path(args.config).read_text()
    cfg = load_config(text)
    solver = cfg.solver
    if getattr(args, "grid", None) is not None:
        solver = replace(solver, oracle_nodes=args.grid,
                         scan_points=max(50, args.grid // 10))
    if getattr(args, "tol", None) is not None:
        solver = replace(solver, oracle_tol=args.tol)
    return cfg, solver, text


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_solve(args):
    cfg, solver, text = _load(args)
    out = _out_dir(args)

    t0 = time.perf_counter()
    ctx = build_context(cfg.problem, solver)
    t_ctx = time.perf_counter() - t0

    t0 = time.perf_counter()
    scan = scan_slopes(ctx)
    vrep = assemble_value(ctx, scan.policy)
    t_solve = time.perf_counter() - t0

    policy = scan.policy
    with open(out / "policy.json", "w") as fh:
        json.dump(policy.to_dict(), fh, indent=2)

    x_lo, x_hi = ctx.solved_lo, ctx.window[1]
    xs = np.linspace(x_lo, x_hi, 1000)
    _write_csv(out / "value.csv", ["x", "v", "dv"],
               [xs, vrep.value(xs), vrep.derivative(xs)])
    _write_csv(out / "slope_scan.csv", ["a", "beta"],
               [scan.scan_a, scan.scan_beta])

    if not policy.is_empty:
        a_star, b_top = policy.bands[-1]
        gamma = ctx.gamma(a_star, policy.slope)
        hi_m = min(x_hi, b_top + 0.2 * (x_hi - x_lo))
        xs_m = np.linspace(x_lo + 1e-9 * (hi_m - x_lo), hi_m, 400)
        ys_m = ctx.pair.F(xs_m)
        shifted = (ctx.kbar_extended(xs_m, a_star) + gamma) \
            / ctx.pair.phi(xs_m)
        _write_csv(out / "majorant.csv", ["y", "majorant", "shifted_reward"],
                   [ys_m, ctx.line(ys_m, policy.slope), shifted])

    rows = [
        ("config_hash", _config_hash(text)),
        ("boundary", ctx.problem.diffusion.boundary),
        ("alpha", ctx.problem.diffusion.alpha),
        ("window", ctx.window),
        ("pair_provenance", ctx.pair.provenance),
        ("g_provenance", ctx.g_provenance),
        ("F_lo", ctx.F_lo),
        ("D", ctx.D),
    ]
    pol_rows = [
        ("n_bands", len(policy.bands)),
        ("beta_star", policy.slope),
        ("intercept_D", policy.intercept),
        ("no_intervention", scan.no_intervention),
    ]
    for i, (a, b) in enumerate(policy.bands):
        pol_rows.append((f"band_{i}", f"a={a!r} b={b!r}"))
        gap = smooth_fit_check(vrep, b) if (a, b) == policy.bands[-1] else 0.0
        pol_rows.append((f"band_{i}_smooth_fit_gap", gap))
    for i, st in enumerate(scan.stages):
        pol_rows.append(
            (f"band_{i}_diagnostics",
             f"gamma={st.gamma!r} residual={st.tangency_residual!r} "
             f"roots={st.n_tangency_roots}"))
    for w in scan.warnings:
        pol_rows.append(("warning", w))
    samples = [("n_value_points", xs.size)]
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        xq = x_lo + q * (x_hi - x_lo)
        samples.append((f"v({xq:g})", vrep.value(xq)))
    timing = [("build_context_s", f"{t_ctx:.3f}"),
              ("solve_s", f"{t_solve:.3f}")]
    (out / "report.txt").write_text(_report_lines(
        "solve report", [("problem", rows), ("policy", pol_rows),
                         ("value_samples", samples), ("timings", timing)]))
    print(f"solved: {len(policy.bands)} band(s), beta*={policy.slope!r}; "
          f"outputs in {out}")
    return 0


def cmd_iterate(args):
    cfg, solver, text = _load(args)
    out = _out_dir(args)
    ctx = build_context(cfg.problem, solver)

    t0 = time.perf_counter()
    og = value_iteration(
        ctx, x_max=solver.oracle_x_max, keep_iterates=args.log_every)
    t_it = time.perf_counter() - t0

    iters, ys_col, phi_col = [], [], []
    for it, vals in og.iterates:
        iters.append(np.full(og.ys.size, it))
        ys_col.append(og.ys)
        phi_col.append(vals)
    if iters:
        _write_csv(out / "iterates.csv", ["iter", "y", "phi"],
                   [np.concatenate(iters), np.concatenate(ys_col),
                    np.concatenate(phi_col)])
    _write_csv(out / "oracle_grid.csv", ["y", "x", "phi"],
               [og.ys, og.xs, og.values])
    _write_csv(out / "convergence.csv", ["iter", "sup_change"],
               [np.arange(1, len(og.history) + 1), np.array(og.history)])
    _write_csv(out / "triggers.csv", ["trigger_x"],
               [np.array(og.triggers, dtype=float)])

    rows = [
        ("config_hash", _config_hash(text)),
        ("nodes", og.ys.size),
        ("iterations", og.n_iter),
        ("final_sup_change", og.sup_change),
        ("final_residual", og.residual),
        ("converged", og.converged),
        ("triggers", list(og.triggers)),
        ("runtime_s", f"{t_it:.3f}"),
    ]
    (out / "report.txt").write_text(
        _report_lines("oracle report", [("oracle", rows)]))
    print(f"oracle: {og.n_iter} iterations, final change {og.sup_change:.3e}, "
          f"{len(og.triggers)} trigger node(s); outputs in {out}")
    if not og.converged:
        print("oracle did not converge", file=sys.stderr)
        return 2
    return 0


def _policy_from_args(args):
    if args.policy:
        data = json.loads(Path(args.policy).read_text())
        try:
            return BandPolicy.from_dict(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"malformed policy file {args.policy}: {exc!r}") from None
    if args.band:
        bands = []
        for chunk in args.band:
            a, _, b = chunk.partition(":")
            try:
                bands.append((float(a), float(b)))
            except ValueError:
                raise ConfigError(f"--band wants a:b, got {chunk!r}") from None
        return BandPolicy(bands=tuple(sorted(bands)), slope=math.nan,
                          intercept=math.nan, fixed_point_A=(math.nan, math.nan))
    raise ConfigError("simulate needs --policy FILE or --band a:b")


def cmd_simulate(args):
    cfg, solver, text = _load(args)
    out = _out_dir(args)
    policy = _policy_from_args(args)
    try:
        x0s = [float(v) for v in args.x0.split(",")]
    except ValueError:
        raise ConfigError(f"--x0 wants numbers, got {args.x0!r}") from None
    ctx = build_context(cfg.problem, solver)

    sim_cfgs = [SimConfig(x0=x0, dt=args.dt, horizon=args.horizon,
                          n_paths=args.paths, seed=args.seed) for x0 in x0s]
    rows = [(c.x0, simulate_policy(ctx, policy, c)) for c in sim_cfgs]

    path = out / "estimates.csv"
    with open(path, "w") as fh:
        fh.write(f"# generator = {rows[0][1].generator}\n")
        fh.write(f"# seed = {args.seed}\n")
        fh.write(f"# config_hash = {_config_hash(text)}\n")
        fh.write("x0,estimate,std_error,n_paths\n")
        for x0, res in rows:
            fh.write(",".join([
                _FMT % x0, _FMT % res.estimate, _FMT % res.std_error,
                str(res.n_paths)]) + "\n")
        for x0, res in rows:
            if res.censored_fraction > 0:
                fh.write(f"# censored_fraction x0={x0}: "
                         f"{res.censored_fraction}\n")
    print(f"simulated {len(rows)} start state(s); outputs in {out}")
    return 0


def cmd_check(args):
    from .checks import run_property_suite
    cfg, solver, _ = _load(args)
    ctx = build_context(cfg.problem, solver)
    results = run_property_suite(ctx, oracle_x_max=solver.oracle_x_max)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    if failed:
        print(f"{len(failed)} property check(s) failed", file=sys.stderr)
        return 3
    return 0


_FLAGS = {
    "--out": dict(default="out", help="output directory"),
    "--seed": dict(type=int, default=0, help="random seed"),
    "--grid": dict(type=int, default=None, help="override grid node count"),
    "--tol": dict(type=float, default=None,
                  help="override iteration tolerance"),
}


def _build_parser():
    p = argparse.ArgumentParser(
        prog="impulse-bands",
        description="Band policies for impulse control of 1-d diffusions")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *flags):
        """The config argument plus those of the shared flags sp reads."""
        sp.add_argument("config", help="problem config file")
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])

    sp = sub.add_parser("solve", help="compute the optimal band policy")
    common(sp, "--out", "--grid")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("iterate", help="grid value-iteration oracle")
    common(sp, "--out", "--grid", "--tol")
    sp.add_argument("--log-every", type=int, default=10,
                    help="record every Nth iterate in iterates.csv")
    sp.set_defaults(fn=cmd_iterate)

    sp = sub.add_parser("simulate", help="Monte Carlo policy evaluation")
    common(sp, "--out", "--seed")
    sp.add_argument("--policy", default=None,
                    help="policy.json from a prior solve")
    sp.add_argument("--band", action="append", default=None,
                    metavar="a:b", help="explicit band (repeatable)")
    sp.add_argument("--x0", default="0.0", help="comma-separated start states")
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--horizon", type=float, default=60.0)
    sp.add_argument("--paths", type=int, default=10000)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("check", help="run the property suite")
    # check writes no file; it keeps --out because benchmark/reference.py
    # passes it
    common(sp, "--out", "--grid")
    sp.set_defaults(fn=cmd_check)
    return p


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 1
    except ImpulseError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
