#!/usr/bin/env python3
"""Pipeline benchmark: set-up, solve, iterate, simulate and check.

    python3 benchmark/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout.  One run repeats whole rounds of the workload's operations,
in the order ``impulse-bands solve / iterate / simulate / check`` calls
them, until the next round would end after ``--seconds``.  Every operation
is checked by ``gates.py``; an operation fails when it raises or its gate
rejects its output.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).  The
full record of the run is written to ``benchmark/results/``.  The exit code
is 0 unless an operation failed that is not a known fault of the workload.
"""

import os

# one BLAS thread and one simulation thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["IMPULSE_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(SRC))
try:
    import numpy as np
    import impulse_bands
    from impulse_bands import (SimConfig, assemble_value, build_context,
                               checks, load_config, oracle, scan_slopes,
                               simulate_policy, value_iteration)
    from impulse_bands.fundamentals import fundamentals_for
    from impulse_bands.model import resolve_window
except ImportError as exc:
    sys.exit(f"benchmark: cannot import impulse_bands from {SRC}: {exc}")
if Path(impulse_bands.__file__).resolve().parent.parent != SRC:
    sys.exit(f"benchmark: impulse_bands comes from {impulse_bands.__file__}, "
             f"not from {SRC}")

import gates  # noqa: E402
import tracing  # noqa: E402
from workloads import CHECKS, WORKLOADS  # noqa: E402

STAGES = ("setup", "solve", "iterate", "simulate", "check")
SUITE_RESULTS = len(CHECKS) + 1   # run_property_suite adds finiteness
VALUE_POINTS = 1000
EXPR_POINTS = 20_000                   # one simulate chunk
MICRO_REPEATS = 5


class Bench:
    """One workload at one seed; ``round()`` runs and gates every operation."""

    def __init__(self, workload, seed, recorder=None):
        self.w = workload
        self.seed = seed
        self.rec = recorder
        self.text = workload.config_text
        cfg = load_config(self.text)
        self.window = resolve_window(cfg.problem, cfg.solver)
        self.ref = gates.references(workload, seed, self.window)
        self.n_checks = SUITE_RESULTS if workload.check_sizes is None \
            else len(CHECKS)

    # -- operations --------------------------------------------------------

    def setup(self):
        cfg = load_config(self.text)
        if self.rec is None:
            return cfg, build_context(cfg.problem, cfg.solver)
        opts = cfg.solver
        t0 = time.perf_counter()
        pair = fundamentals_for(cfg.problem.diffusion,
                                c=opts.normalization_point,
                                tol=opts.numeric_pair_tol, window=self.window)
        self.layer["fundamentals.pair_build_s"] = time.perf_counter() - t0
        self.raw_pair = pair
        ctx = build_context(cfg.problem, opts,
                            pair=tracing.traced_pair(pair, self.rec))
        return cfg, ctx

    def solve(self, ctx):
        t0 = time.perf_counter()
        scan = scan_slopes(ctx)
        vrep = assemble_value(ctx, scan.policy)
        t1 = time.perf_counter()
        x_lo, x_hi = ctx.window
        if ctx.absorbing:
            x_lo = ctx.problem.diffusion.lo
        xs = np.linspace(x_lo, x_hi, VALUE_POINTS)
        values = (vrep.value(xs), vrep.derivative(xs))
        if self.rec is not None:
            self.layer["solver.scan_slopes_s"] = t1 - t0
            self.layer["solver.value_eval_s"] = time.perf_counter() - t1
        return scan, vrep, values

    def iterate(self, cfg, ctx):
        return value_iteration(ctx, x_max=cfg.solver.oracle_x_max,
                               keep_iterates=10)

    def simulate(self, ctx, policy):
        return simulate_policy(ctx, policy,
                               SimConfig(seed=self.seed, **self.w.sim),
                               n_workers=1)

    def check(self, cfg, ctx, scan, vrep):
        x_max = cfg.solver.oracle_x_max
        sizes = self.w.check_sizes
        if sizes is None:
            return checks.run_property_suite(ctx, oracle_x_max=x_max)
        valid = scan.scan_a[np.isfinite(scan.scan_beta)]
        # evenly spaced interior targets of the scan
        pick = np.linspace(0, valid.size - 1, sizes["gamma_targets"] + 2)
        targets = valid[pick[1:-1].astype(int)]
        return [
            checks.check_f_concavity(ctx, vrep, n_triples=sizes["n_triples"]),
            checks.check_linearity(ctx, vrep),
            checks.check_majorant(ctx, vrep),
            checks.check_contraction(ctx, float(valid[valid.size // 2])),
            checks.check_gamma_sign_change(ctx, targets,
                                           n_gamma=sizes["n_gamma"]),
            checks.check_envelope_brute_force(),
            checks.check_monotone_iteration(
                ctx, x_max=x_max or ctx.options.oracle_x_max),
        ]

    # -- one round -----------------------------------------------------------

    def _op(self, stage, name, fn, gate, layers=None):
        """Run fn timed, let the traced run read its layer figures, then
        gate the output.  Returns fn's result, or None when it raised."""
        if self.rec is not None:
            self.rec.reset()
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # every failure is counted, never fatal
            self.times[stage].append(time.perf_counter() - t0)
            self.ops.append(dict(op=name, ok=False,
                                 detail=[f"raised {exc!r}"]))
            return None
        self.times[stage].append(time.perf_counter() - t0)
        if self.rec is not None and layers is not None:
            layers(out)
        verdicts = gate(out)
        ok = all(v[1] for v in verdicts)
        self.ops.append(dict(op=name, ok=ok,
                             detail=[f"{'ok' if v[1] else 'FAIL'} {v[0]}: "
                                     f"{v[2]}" for v in verdicts]))
        return out

    def _skip(self, names, why):
        for name in names:
            self.ops.append(dict(op=name, ok=False, detail=[f"skipped: {why}"]))

    def round(self):
        self.ops = []
        self.times = {s: [] for s in STAGES}
        self.layer = {}
        w, ref = self.w, self.ref
        later = ["solve", "iterate", "simulate"] \
            + [f"check.{i}" for i in range(self.n_checks)]

        for _ in range(w.setup_repeats):
            built = self._op("setup", "setup", self.setup,
                             lambda out: gates.gate_setup(w, ref, out[1]),
                             self._setup_layers)
            if built is None:
                self._skip(later, "setup failed")
                return self._result()
        cfg, ctx = built

        solved = self._op(
            "solve", "solve", lambda: self.solve(ctx),
            lambda out: gates.gate_solve(w, ref, ctx, *out),
            lambda out: self._solve_layers(ctx))
        if solved is None or solved[0].policy.is_empty:
            self._skip(later[1:], "solve failed")
            return self._result()
        scan, vrep, _ = solved

        self._op("iterate", "iterate", lambda: self.iterate(cfg, ctx),
                 lambda out: gates.gate_iterate(w, ctx, scan, out),
                 lambda out: self._iterate_layers(ctx, out))
        self._op("simulate", "simulate",
                 lambda: self.simulate(ctx, scan.policy),
                 lambda out: gates.gate_simulate(w, vrep, out),
                 lambda out: self._simulate_layers(ctx))
        self._check_stage(cfg, ctx, scan, vrep)
        return self._result()

    def _check_stage(self, cfg, ctx, scan, vrep):
        if self.rec is not None:
            self.rec.reset()
        t0 = time.perf_counter()
        try:
            results = self.check(cfg, ctx, scan, vrep)
        except Exception as exc:  # every failure is counted, never fatal
            self.times["check"].append(time.perf_counter() - t0)
            self._skip([f"check.{i}" for i in range(self.n_checks)],
                       f"check raised {exc!r}")
            return
        self.times["check"].append(time.perf_counter() - t0)
        for r in results:
            self.ops.append(dict(op=f"check.{r.name}", ok=bool(r.passed),
                                 detail=[r.detail]))
        self._skip([f"check.missing{i}"
                    for i in range(self.n_checks - len(results))],
                   "check result missing")
        if self.rec is not None:
            rec = self.rec
            self.layer["fundamentals.F_inv_s"] = rec.total("fundamentals.F_inv")
            self.layer["solver.stopping_value_s"] = \
                rec.total("solver.stopping_value")
            self.layer["solver.solve_gamma_s"] = rec.total("solver.solve_gamma")
            for name in CHECKS:
                self.layer[f"checks.{name}_s"] = rec.total(f"checks.{name}")

    # -- per-layer figures of the traced run ------------------------------------

    def _setup_layers(self, _):
        rec = self.rec
        self.layer["transform.compute_g_s"] = rec.total("transform.compute_g")
        self.layer["transform.boundary_data_s"] = \
            rec.total("transform.boundary_data")

    def _solve_layers(self, ctx):
        rec = self.rec
        self.layer["fundamentals.pair_calls"] = rec.calls("fundamentals.pair")
        self.layer["fundamentals.pair_points"] = \
            rec.points["fundamentals.pair"]
        self.layer["fundamentals.pair_eval_s"] = \
            rec.total("fundamentals.pair")
        self.layer["transform.finiteness_check_s"] = \
            rec.total("transform.finiteness_check")
        self.layer["solver.tangency_solve_s"] = \
            rec.total("solver.tangency_solve")
        xs = np.linspace(*ctx.window, VALUE_POINTS)
        self.layer["fundamentals.pair_eval_1k_s"] = _median_time(
            lambda: (self.raw_pair.psi(xs), self.raw_pair.phi(xs)))

    def _iterate_layers(self, ctx, og):
        rec = self.rec
        self.layer["oracle.make_grid_s"] = rec.total("oracle.make_grid")
        self.layer["oracle.nodes"] = int(og.xs.size)
        self.layer["oracle.sweeps"] = int(og.n_iter)
        self.layer["oracle.sweep_s"] = rec.per_call("oracle.sweep")
        self.layer["oracle.envelope_s"] = rec.per_call("oracle.envelope")
        # without a workspace, intervention_operator builds one first
        t0 = time.perf_counter()
        oracle.intervention_operator(ctx, og)
        self.layer["oracle.workspace_s"] = time.perf_counter() - t0

    def _simulate_layers(self, ctx):
        sim = self.w.sim
        steps = sim["n_paths"] * math.ceil(sim["horizon"] / sim["dt"])
        self.layer["simulate.path_steps"] = steps
        self.layer["simulate.ns_per_path_step"] = \
            self.times["simulate"][-1] * 1e9 / steps
        d = ctx.problem.diffusion
        xs = np.linspace(*ctx.window, EXPR_POINTS)
        exprs = (ctx.problem.running_reward, d.drift, d.vol)
        self.layer["expressions.eval_s"] = _median_time(
            lambda: [e(xs) for e in exprs])

    def _result(self):
        return dict(ops=self.ops, times=self.times, layer=self.layer)


def _median_time(fn):
    samples = []
    for _ in range(MICRO_REPEATS):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _declared_metrics(trace):
    """Names and units of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _summarise(rounds, trace):
    if trace:
        values = {name: statistics.median(r["layer"][name] for r in rounds
                                          if name in r["layer"])
                  for name in rounds[0]["layer"]}
    else:
        values = {"setup_s": statistics.median(
            t for r in rounds for t in r["times"]["setup"])}
        for stage in STAGES[1:]:
            values[f"{stage}_s"] = statistics.median(
                sum(r["times"][stage]) for r in rounds)
        values["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    declared = _declared_metrics(trace)
    if set(values) != set(declared):
        raise SystemExit(
            "benchmark: measured metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(values))}, "
            f"undeclared {sorted(set(values) - set(declared))}")
    return {name: dict(value=values[name], unit=unit)
            for name, unit in declared.items()}


def _stage_medians(rounds):
    return {s: statistics.median(sum(r["times"][s]) for r in rounds)
            for s in STAGES}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    w = WORKLOADS[args.workload]
    recorder = tracing.Recorder() if args.trace else None
    bench = Bench(w, args.seed, recorder)

    rounds = []
    start = time.perf_counter()
    with tracing.patched(recorder) if recorder else contextlib.nullcontext():
        while True:
            t0 = time.perf_counter()
            rounds.append(bench.round())
            took = time.perf_counter() - t0
            print(f"round {len(rounds)}: {took:.2f} s", flush=True)
            if time.perf_counter() - start + took > args.seconds:
                break

    ops = [op for r in rounds for op in r["ops"]]
    failed = [op for op in ops if not op["ok"]]
    unexpected = [op for op in failed if op["op"] not in w.known_faults]
    for op in failed:
        why = w.known_faults.get(op["op"], "UNEXPECTED")
        print(f"failed {op['op']} ({why}): {'; '.join(op['detail'])}")
    metrics = _summarise(rounds, args.trace)

    record = dict(workload=w.name, seed=args.seed, trace=args.trace,
                  rounds=len(rounds), stage_medians_s=_stage_medians(rounds),
                  metrics=metrics, operations=rounds[0]["ops"])
    RESULTS.mkdir(exist_ok=True)
    untraced = RESULTS / f"{w.name}-seed{args.seed}-trace0.json"
    if args.trace and untraced.exists():
        base = json.loads(untraced.read_text())["stage_medians_s"]
        record["trace_overhead_s"] = {
            s: record["stage_medians_s"][s] - base[s] for s in STAGES}
        print("trace overhead (traced - untraced stage medians): "
              + ", ".join(f"{s} {v:+.4f} s"
                          for s, v in record["trace_overhead_s"].items()))
    out = RESULTS / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps(dict(correct=not unexpected, attempted=len(ops),
                          failed=len(failed), metrics=metrics)))
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
