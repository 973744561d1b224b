"""Quick tests of the benchmark's own gates: each must reject a wrong output.

    python3 -m pytest -q benchmark/test_gates.py

A shifted band, a perturbed slope and a fundamental pair scaled by 1+1e-6
must each be rejected; so must a Monte Carlo estimate far from v(x0) and a
resolvent g off its ODE.  The correct outputs must pass, and the constants
the references use must match the workload configs.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from impulse_bands import (SimResult, assemble_value,  # noqa: E402
                           build_context, load_config, scan_slopes,
                           value_iteration)

import gates  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _ok(verdicts):
    return all(v[1] for v in verdicts)


class Solved:
    def __init__(self, name, solve=True):
        self.w = WORKLOADS[name]
        cfg = load_config(self.w.config_text)
        self.ctx = build_context(cfg.problem, cfg.solver)
        self.ref = gates.references(self.w, 3, self.ctx.window)
        if solve:
            self.scan = scan_slopes(self.ctx)

    def solve_gates(self, policy=None):
        scan = self.scan if policy is None \
            else dataclasses.replace(self.scan, policy=policy)
        vrep = assemble_value(self.ctx, scan.policy)
        xs = np.linspace(*self.ctx.window, 50)
        return gates.gate_solve(self.w, self.ref, self.ctx, scan, vrep,
                                (vrep.value(xs), vrep.derivative(xs)))


@pytest.fixture(scope="module")
def bm():
    return Solved("bm_quadratic_cost")


@pytest.fixture(scope="module")
def sine():
    return Solved("bm_sine_multiband")


def _shifted(policy, d):
    return dataclasses.replace(
        policy, bands=tuple((a + d, b + d) for a, b in policy.bands))


def _steeper(policy, rel=1e-6):
    return dataclasses.replace(policy, slope=policy.slope * (1 + rel))


def _scaled_pair(ctx, factor=1 + 1e-6):
    pair = ctx.pair
    scaled = dataclasses.replace(
        pair, psi=lambda x: factor * pair.psi(x),
        dpsi=lambda x: factor * pair.dpsi(x))
    return dataclasses.replace(ctx, pair=scaled)


def test_references_match_published_values():
    A, a, b = gates.bm_quadratic_reference(0.2, 150.0, 50.0)
    assert (A, a, b) == pytest.approx((0.0492262, 5.077232, 12.26108),
                                      rel=1e-6)
    assert gates.sine_reference(10.0, 0.35) == pytest.approx(
        (2.765375, 3.517811, 9.300608), rel=1e-6)


def test_model_constants_match_configs():
    xs = np.array([0.3, 1.1, 2.0])
    for name, w in WORKLOADS.items():
        p = w.model
        problem = load_config(w.config_text).problem
        d = problem.diffusion
        if name == "bm_quadratic_cost":
            assert d.alpha == p["alpha"]
            assert np.allclose(problem.intervention_reward(xs + 1, xs),
                               -p["c"] - p["lam"])
        elif name == "bm_sine_multiband":
            K = problem.intervention_reward(xs + 1, xs)
            assert np.allclose(
                K, -p["c"] * (np.sin(xs + 1) - np.sin(xs)) - p["delta"])
        else:
            assert d.alpha == p["alpha"]
            assert np.allclose(d.drift(xs), p["delta"] * (p["m"] - xs))
            slope = p.get("vol_slope", 0.0)
            assert np.allclose(d.vol(xs), p["sigma"] * (1 + slope * xs))
            assert np.allclose(problem.running_reward(xs),
                               p.get("f_slope", 0.0) * xs)


def test_correct_outputs_pass(bm, sine):
    for s in (bm, sine):
        assert _ok(gates.gate_setup(s.w, s.ref, s.ctx))
        assert _ok(s.solve_gates())


@pytest.mark.parametrize("shift", [1e-3, -0.05])
def test_shifted_band_rejected(bm, sine, shift):
    for s in (bm, sine):
        assert not _ok(s.solve_gates(_shifted(s.scan.policy, shift)))


def test_perturbed_slope_rejected(bm, sine):
    for s in (bm, sine):
        assert not _ok(s.solve_gates(_steeper(s.scan.policy)))


def test_scaled_pair_rejected(bm):
    ou = Solved("ou_dividend", solve=False)
    for s in (bm, ou):
        assert _ok(gates.gate_setup(s.w, s.ref, s.ctx))
        assert not _ok(gates.gate_setup(s.w, s.ref, _scaled_pair(s.ctx)))


def test_oracle_gate_rejects_shifted_band(bm):
    og = value_iteration(bm.ctx)
    assert _ok(gates.gate_iterate(bm.w, bm.ctx, bm.scan, og))
    moved = dataclasses.replace(bm.scan, policy=_shifted(bm.scan.policy, 0.1))
    assert not _ok(gates.gate_iterate(bm.w, bm.ctx, moved, og))


def test_mc_gate(bm):
    vrep = assemble_value(bm.ctx, bm.scan.policy)
    v0 = float(vrep.value(bm.w.sim["x0"]))

    def result(z):
        return SimResult(estimate=v0 + z * 0.5, std_error=0.5, n_paths=100,
                         seed=0, generator="pcg64", censored_fraction=0.0,
                         absorbed_fraction=0.0)

    assert _ok(gates.gate_simulate(bm.w, vrep, result(1.0)))
    for z in (-5.0, 5.0):
        assert not _ok(gates.gate_simulate(bm.w, vrep, result(z)))
    one_sided = dataclasses.replace(bm.w, mc_test="one_sided")
    assert _ok(gates.gate_simulate(one_sided, vrep, result(-5.0)))
    assert not _ok(gates.gate_simulate(one_sided, vrep, result(5.0)))
    assert not _ok(gates.gate_simulate(one_sided, vrep, result(-11.0)))


def test_statevol_gates_reject_wrong_g_and_pair():
    s = Solved("statevol_reserve", solve=False)
    assert _ok(gates.gate_setup(s.w, s.ref, s.ctx))
    g, dg = s.ctx.g, s.ctx.dg
    off_g = dataclasses.replace(s.ctx, g=lambda x: 1.01 * g(x),
                                dg=lambda x: 1.01 * dg(x))
    assert not _ok(gates.gate_setup(s.w, s.ref, off_g))
    pair = s.ctx.pair
    bent = dataclasses.replace(
        pair, psi=lambda x: pair.psi(x) * (1 + 1e-3 * np.asarray(x) ** 2))
    assert not _ok(gates.gate_setup(s.w, s.ref,
                                    dataclasses.replace(s.ctx, pair=bent)))

