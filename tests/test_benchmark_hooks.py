"""The benchmark's traced run (``benchmark/run.py --trace 1``) times the
package by replacing functions by name; every name it patches must exist."""

import importlib
import pathlib
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "benchmark"


def test_tracing_patches_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCHMARK))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")

    for mod, attr, _ in tracing.PATCHES:
        module = importlib.import_module(f"impulse_bands.{mod}")
        assert callable(getattr(module, attr, None)), f"{mod}.{attr}"
    checks = importlib.import_module("impulse_bands.checks")
    for name in workloads.CHECKS:
        assert callable(getattr(checks, f"check_{name}", None)), name
    # checks imports solve_gamma at call time, so the traced run's patch of
    # solver.solve_gamma is the one it calls
    assert "solve_gamma" not in vars(checks)
