import dataclasses
import math

import pytest

from impulse_bands import (BandPolicy, ConfigError, ValidationError,
                           load_config, load_problem)
from tests.conftest import ROOT, read_config


def test_example_bm_config_loads(bm_cfg):
    p = bm_cfg.problem
    assert p.diffusion.alpha == 0.2
    assert p.diffusion.boundary == "natural"
    assert p.intervention_reward(12.261, 5.077) == pytest.approx(-509.2)
    assert p.running_reward(2.0) == -4.0


def test_example_ou_config_loads(ou_cfg):
    d = ou_cfg.problem.diffusion
    assert d.alpha == 0.105
    assert d.boundary == "absorbing"
    assert d.drift(0.9) == pytest.approx(0.0)
    assert d.vol(1.3) == pytest.approx(0.35)
    assert ou_cfg.problem.ruin_penalty == 0.0
    assert ou_cfg.solver.x_max == 2.5


def test_readme_config_example_loads():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Config format", 1)[1].split("```")[1]
    cfg = load_config(block)
    assert cfg.problem.diffusion.boundary == "absorbing"
    assert cfg.problem.ruin_penalty == 0.0
    assert cfg.solver.x_max == 2.5
    assert cfg.solver.oracle_nodes == 2000


def test_zero_fixed_cost_rejected():
    text = read_config("bm_quadratic_cost.cfg").replace(
        'K = "-c - lambda*(x - y)"', 'K = "0 - 0*(x-y)"')
    with pytest.raises(ValidationError, match="K"):
        load_problem(text)


def test_negative_vol_rejected():
    text = read_config("bm_quadratic_cost.cfg").replace(
        'vol = "1"', 'vol = "-1"')
    with pytest.raises(ValidationError, match="volatility"):
        load_problem(text)


def test_missing_field():
    with pytest.raises(ConfigError, match="drift"):
        load_problem("[diffusion]\nvol = \"1\"\nalpha = 0.1\n"
                     "[reward]\nf = \"0\"\nK = \"-1\"\n")


def test_unquoted_expression_rejected():
    with pytest.raises(ConfigError):
        load_problem("[diffusion]\ndrift = 0\nvol = \"1\"\nalpha = 0.1\n"
                     "[reward]\nf = \"0\"\nK = \"-1\"\n")


@pytest.mark.parametrize("line", [
    "oracle_nodes = 0", "oracle_nodes = 1", "oracle_nodes = -4",
    "oracle_tol = 0", "oracle_tol = -1", "oracle_tol = nan",
    "oracle_tol = inf",
])
def test_bad_oracle_settings_rejected(line):
    key = line.split(" = ")[0]
    text = read_config("bm_quadratic_cost.cfg").replace(
        "x_max = 15", f"x_max = 15\n{line}")
    with pytest.raises(ConfigError, match=key):
        load_config(text)
    options = load_config(read_config("bm_quadratic_cost.cfg")).solver
    value = float(line.split(" = ")[1])
    with pytest.raises(ConfigError, match=key):
        dataclasses.replace(options, **{key: value})


def test_bad_line_reports_number():
    text = "[diffusion]\ndrift \"1\"\n"
    with pytest.raises(ConfigError, match="line 2"):
        load_config(text)


def test_upward_impulses_rejected():
    text = read_config("bm_quadratic_cost.cfg") + '\n[reward]\ndirection = "up"\n'
    # re-declaring the section merges keys; direction=up must be refused
    with pytest.raises(ConfigError, match="downward"):
        load_config(text)


def test_zero_discount_needs_absorbing():
    text = read_config("bm_quadratic_cost.cfg").replace(
        "alpha = 0.2", "alpha = 0.0")
    with pytest.raises(ValidationError, match="absorbing"):
        load_problem(text)


def test_penalty_sign_checked():
    text = read_config("ou_dividend.cfg").replace(
        "penalty = 0.0", "penalty = 1.0")
    with pytest.raises(ValidationError, match="nonpositive"):
        load_problem(text)


def test_band_policy_invariants():
    with pytest.raises(ValidationError):
        BandPolicy(bands=((2.0, 1.0),), slope=1.0, intercept=0.0,
                   fixed_point_A=(0.0, 0.0))
    with pytest.raises(ValidationError):
        BandPolicy(bands=((1.0, 3.0), (2.0, 4.0)), slope=1.0, intercept=0.0,
                   fixed_point_A=(0.0, 0.0))
    p = BandPolicy(bands=((1.0, 2.0), (3.0, 4.0)), slope=1.0, intercept=0.0,
                   fixed_point_A=(0.0, 0.0))
    assert p.triggers == (2.0, 4.0)
    assert BandPolicy.from_dict(p.to_dict()) == p


def test_inf_values_parse():
    cfg = load_config(read_config("bm_quadratic_cost.cfg"))
    assert cfg.problem.diffusion.lo == -math.inf
    assert cfg.problem.diffusion.hi == math.inf
