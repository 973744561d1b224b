#!/usr/bin/env python3
"""Reference figures that are not benchmark metrics.

    python3 benchmark/reference.py [--full-check]

Prints, and writes to ``benchmark/results/reference.json``: interpreter
start-up and package import time, the numpy PCG64 ``standard_normal`` draw
rate, the CSV write time of ``solve`` on each workload, nproc and library
versions.  ``--full-check`` adds the wall time of ``impulse-bands check`` on
``ou_dividend`` at its shipped sizes, which takes several minutes.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import mpmath  # noqa: E402

from impulse_bands import (assemble_value, build_context,  # noqa: E402
                           load_config, scan_slopes)
from impulse_bands.cli import _write_csv  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _wall(cmd, repeats=5):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, env=env, cwd=ROOT)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def import_time():
    bare = _wall([sys.executable, "-c", "pass"])
    full = _wall([sys.executable, "-c", "import impulse_bands.checks"])
    return {"interpreter_start_s": bare, "package_import_s": full - bare}


def draw_rate(total=20_000_000, chunk=20_000):
    rng = np.random.Generator(np.random.PCG64(1))
    t0 = time.perf_counter()
    for _ in range(total // chunk):
        rng.standard_normal(chunk)
    return total / (time.perf_counter() - t0)


def csv_write_time(name):
    """value.csv and slope_scan.csv as ``impulse-bands solve`` writes them."""
    cfg = load_config(WORKLOADS[name].config_text)
    ctx = build_context(cfg.problem, cfg.solver)
    scan = scan_slopes(ctx)
    vrep = assemble_value(ctx, scan.policy)
    x_lo, x_hi = ctx.window
    if ctx.absorbing:
        x_lo = ctx.problem.diffusion.lo
    xs = np.linspace(x_lo, x_hi, 1000)
    cols = [xs, vrep.value(xs), vrep.derivative(xs)]
    out = RESULTS / "csv"
    out.mkdir(parents=True, exist_ok=True)
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        _write_csv(out / "value.csv", ["x", "v", "dv"], cols)
        _write_csv(out / "slope_scan.csv", ["a", "beta"],
                   [scan.scan_a, scan.scan_beta])
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def full_check_time():
    cfg = HERE / "configs" / "ou_dividend.cfg"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "impulse_bands", "check", str(cfg),
         "--out", str(RESULTS / "check_ou")], env=env, cwd=ROOT,
        capture_output=True, text=True)
    return {"seconds": time.perf_counter() - t0, "exit_code": proc.returncode,
            "output": proc.stdout.splitlines()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--full-check", action="store_true")
    args = parser.parse_args()
    RESULTS.mkdir(exist_ok=True)
    figures = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        **import_time(),
        "pcg64_standard_normal_per_s": draw_rate(),
        "solve_csv_write_s": {name: csv_write_time(name)
                              for name in WORKLOADS},
    }
    if args.full_check:
        figures["check_ou_dividend_full"] = full_check_time()
    text = json.dumps(figures, indent=1)
    (RESULTS / "reference.json").write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
