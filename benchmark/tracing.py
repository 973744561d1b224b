"""Per-layer timings and counts, taken from outside the program.

The traced run (``--trace 1``) wraps two kinds of object for its whole
duration and never touches the untraced run:

* the fundamental pair: ``traced_pair`` returns a copy of a
  ``FundamentalPair`` whose psi, phi, dpsi, dphi and ``F_inv`` record calls,
  points and time; it enters the program through
  ``build_context(..., pair=...)``;
* public functions where another module looks them up at call time
  (``PATCHES``): each is replaced by a timer for the duration of the
  ``patched`` context.

Spans inside the program itself are left for a later change.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import statistics
import time
from collections import defaultdict

import numpy as np

from impulse_bands.fundamentals import FundamentalPair
from workloads import CHECKS

# (module, attribute, recorded name).  A function imported into several
# modules is patched in each consumer that calls it.
PATCHES = (
    ("transform", "compute_g", "transform.compute_g"),
    ("transform", "boundary_data", "transform.boundary_data"),
    ("solver", "finiteness_check", "transform.finiteness_check"),
    ("solver", "tangency_solve", "solver.tangency_solve"),
    ("solver", "stopping_value", "solver.stopping_value"),
    ("checks", "stopping_value", "solver.stopping_value"),
    ("solver", "solve_gamma", "solver.solve_gamma"),
    ("oracle", "make_grid", "oracle.make_grid"),
    ("oracle", "intervention_operator", "oracle.sweep"),
    ("oracle", "pinned_envelope", "oracle.envelope"),
) + tuple(
    ("checks", f"check_{name}", f"checks.{name}")
    for name in CHECKS)

PAIR_FUNCTIONS = ("psi", "phi", "dpsi", "dphi")


class Recorder:
    """Durations and point counts per recorded name, reset per stage."""

    def __init__(self):
        self.durations = defaultdict(list)
        self.points = defaultdict(int)

    def reset(self):
        self.durations.clear()
        self.points.clear()

    def timed(self, name, fn, count_points=False):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.durations[name].append(time.perf_counter() - t0)
                if count_points:
                    self.points[name] += np.size(args[0])
        return wrapper

    def total(self, name):
        return sum(self.durations.get(name, ()))

    def calls(self, name):
        return len(self.durations.get(name, ()))

    def per_call(self, name):
        d = self.durations.get(name)
        return statistics.median(d) if d else 0.0


class _TracedPair(FundamentalPair):
    """FundamentalPair whose F_inv reports to a recorder."""

    def F_inv(self, y, xtol=1e-10):
        t0 = time.perf_counter()
        try:
            return super().F_inv(y, xtol)
        finally:
            self._recorder.durations["fundamentals.F_inv"].append(
                time.perf_counter() - t0)


def traced_pair(pair, recorder):
    fields = {f.name: getattr(pair, f.name)
              for f in dataclasses.fields(pair)}
    for name in PAIR_FUNCTIONS:
        fields[name] = recorder.timed("fundamentals.pair", fields[name],
                                      count_points=True)
    out = _TracedPair(**fields)
    object.__setattr__(out, "_recorder", recorder)
    return out


@contextlib.contextmanager
def patched(recorder):
    """Replace every function in PATCHES with a timer, restoring on exit."""
    # import every module before patching any: a module imported later
    # would bind an already patched function and record its calls twice
    modules = {m: importlib.import_module(f"impulse_bands.{m}")
               for m, _, _ in PATCHES}
    saved = []
    try:
        for mod_name, attr, name in PATCHES:
            mod = modules[mod_name]
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, recorder.timed(name, original))
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
