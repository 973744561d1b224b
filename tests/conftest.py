import pathlib

import pytest

from impulse_bands import (assemble_value, build_context, load_config,
                           scan_slopes)

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
STATEVOL_CFG = ROOT / "benchmark" / "configs" / "statevol_reserve.cfg"


def read_config(name):
    return (CONFIG_DIR / name).read_text()


@pytest.fixture(scope="session")
def bm_cfg():
    return load_config(read_config("bm_quadratic_cost.cfg"))


@pytest.fixture(scope="session")
def bm_ctx(bm_cfg):
    return build_context(bm_cfg.problem, bm_cfg.solver)


@pytest.fixture(scope="session")
def bm_scan(bm_ctx):
    return scan_slopes(bm_ctx)


@pytest.fixture(scope="session")
def bm_vrep(bm_ctx, bm_scan):
    return assemble_value(bm_ctx, bm_scan.policy)


@pytest.fixture(scope="session")
def ou_cfg():
    return load_config(read_config("ou_dividend.cfg"))


@pytest.fixture(scope="session")
def ou_ctx(ou_cfg):
    return build_context(ou_cfg.problem, ou_cfg.solver)


@pytest.fixture(scope="session")
def ou_scan(ou_ctx):
    return scan_slopes(ou_ctx)


@pytest.fixture(scope="session")
def sine_cfg():
    return load_config(read_config("bm_sine_multiband.cfg"))


@pytest.fixture(scope="session")
def sine_ctx(sine_cfg):
    return build_context(sine_cfg.problem, sine_cfg.solver)


@pytest.fixture(scope="session")
def sine_scan(sine_ctx):
    return scan_slopes(sine_ctx)


@pytest.fixture(scope="session")
def statevol_ctx():
    cfg = load_config(STATEVOL_CFG.read_text())
    return build_context(cfg.problem, cfg.solver)


@pytest.fixture(scope="session")
def statevol_scan(statevol_ctx):
    return scan_slopes(statevol_ctx)


NO_INTERVENTION_CONFIG = """
[diffusion]
drift = "0"
vol = "1"
alpha = 0.2
lo = -inf
hi = inf
boundary = "natural"

[reward]
f = "0"
K = "-5 + 0*(x - y)"

[solver]
x_min = -8
x_max = 8
"""


@pytest.fixture(scope="session")
def no_intervention_ctx():
    cfg = load_config(NO_INTERVENTION_CONFIG)
    return build_context(cfg.problem, cfg.solver)
