"""The benchmark's four workloads: config, simulation and check sizes.

Each workload is one config file under ``configs/`` (copied from the
shipped configs, plus ``statevol_reserve``) so that an edit to a shipped
config cannot move a benchmark number.  The constants in ``model`` restate
the config's parameters for the independent reference computations in
``gates.py``; ``test_gates.py`` checks that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict
    # SimConfig fields other than the seed, which comes from --seed.  On
    # the absorbing workloads the horizon is short enough that some paths
    # always reach it: the path loop then runs the same number of steps on
    # every seed, so simulate_s does not vary with the seed.
    sim: dict
    # "two_sided": |z| <= MC_Z; "one_sided": z <= MC_Z and z >= -MC_BIAS_Z
    mc_test: str
    # None runs checks.run_property_suite; otherwise the check_* functions
    # are called one by one at these sizes
    check_sizes: dict | None
    # setups per round: cheap set-ups are repeated so setup_s has a median
    setup_repeats: int
    # (operation name) -> fault it shows; such an operation fails in every
    # round on every seed and is counted in `failed` without failing the run
    known_faults: dict = field(default_factory=dict)

    @property
    def config_text(self):
        return (CONFIG_DIR / f"{self.name}.cfg").read_text()


# the check_* functions, in the order run_property_suite calls them
CHECKS = ("f_concavity", "linearity", "majorant", "contraction",
          "gamma_sign_change", "envelope_brute_force", "monotone_iteration")

MC_Z = 4.0
MC_BIAS_Z = 10.0


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="ou_dividend",
            model=dict(delta=0.1, m=0.9, sigma=0.35, alpha=0.105),
            sim=dict(x0=0.4, dt=2e-3, horizon=8.0, n_paths=10_000),
            mc_test="one_sided",
            check_sizes=dict(n_triples=3, gamma_targets=1, n_gamma=12),
            setup_repeats=20,
        ),
        Workload(
            name="bm_sine_multiband",
            model=dict(c=10.0, delta=0.35),
            sim=dict(x0=10.0, dt=2e-3, horizon=150.0, n_paths=1000),
            mc_test="one_sided",
            check_sizes=dict(n_triples=500, gamma_targets=4, n_gamma=20),
            setup_repeats=20,
            known_faults={
                "check.f_concavity_chords":
                    "solve stops its target grid below the 7th band, so "
                    "v is wrong on (34.93, 42] (CHANGES.md FOUND line)",
            },
        ),
        Workload(
            name="bm_quadratic_cost",
            model=dict(alpha=0.2, c=150.0, lam=50.0),
            sim=dict(x0=0.0, dt=4e-3, horizon=70.0, n_paths=2000),
            mc_test="two_sided",
            check_sizes=None,
            setup_repeats=20,
        ),
        Workload(
            name="statevol_reserve",
            model=dict(delta=0.1, m=0.9, sigma=0.35, alpha=0.105,
                       vol_slope=0.2, f_slope=-0.02),
            sim=dict(x0=0.4, dt=2e-3, horizon=6.0, n_paths=10_000),
            mc_test="one_sided",
            check_sizes=dict(n_triples=10, gamma_targets=2, n_gamma=12),
            setup_repeats=1,
        ),
    )
}
