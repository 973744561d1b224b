import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from impulse_bands.cli import main
from tests.conftest import CONFIG_DIR, read_config

BM = str(CONFIG_DIR / "bm_quadratic_cost.cfg")


def write_cfg(tmp_path, text, name="problem.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_csv(path):
    rows = [ln for ln in pathlib.Path(path).read_text().splitlines()
            if ln and not ln.startswith("#")]
    header = rows[0].split(",")
    data = np.array([[float(c) for c in ln.split(",")] for ln in rows[1:]])
    return header, data


def test_solve_outputs(tmp_path):
    out = tmp_path / "run"
    assert main(["solve", BM, "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "beta_star" in report and "config_hash" in report
    pol = json.loads((out / "policy.json").read_text())
    a, b = pol["bands"][0]
    assert a == pytest.approx(5.077, rel=1e-2)
    assert b == pytest.approx(12.261, rel=1e-2)
    assert pol["slope"] == pytest.approx(0.0492, rel=1e-2)

    header, data = read_csv(out / "value.csv")
    assert header == ["x", "v", "dv"]
    assert data.shape == (1000, 3)
    header, scan = read_csv(out / "slope_scan.csv")
    assert header == ["a", "beta"]
    header, maj = read_csv(out / "majorant.csv")
    assert header == ["y", "majorant", "shifted_reward"]
    # the majorant dominates the shifted curve where both are defined
    ok = np.isfinite(maj[:, 2])
    assert np.all(maj[ok, 1] >= maj[ok, 2] - 1e-6 * (1 + np.abs(maj[ok, 2])))


def test_solve_rerun_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", BM, "--out", str(out1)]) == 0
    assert main(["solve", BM, "--out", str(out2)]) == 0
    assert (out1 / "value.csv").read_bytes() == (out2 / "value.csv").read_bytes()
    assert (out1 / "slope_scan.csv").read_bytes() \
        == (out2 / "slope_scan.csv").read_bytes()


def test_malformed_config_exit_1(tmp_path, capsys):
    bad = write_cfg(tmp_path, "[diffusion]\ndrift = \n")
    out = tmp_path / "out"
    assert main(["solve", bad, "--out", str(out)]) == 1
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


def test_missing_config_exit_1(tmp_path):
    assert main(["solve", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "o")]) == 1


def test_solver_failure_exit_2(tmp_path, capsys):
    text = read_config("bm_quadratic_cost.cfg").replace(
        'K = "-c - lambda*(x - y)"', 'K = "exp(1.5*x) - exp(1.5*y) - 1"')
    cfg = write_cfg(tmp_path, text)
    assert main(["solve", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "solver error" in capsys.readouterr().err


def _run_cli(*args):
    """python -W error -m impulse_bands with the given arguments."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "impulse_bands", *args],
        capture_output=True, text=True, env=env, timeout=300)


def _run_module(tmp_path, text):
    """python -W error -m impulse_bands solve on the config text."""
    return _run_cli("solve", write_cfg(tmp_path, text),
                    "--out", str(tmp_path / "o"))


@pytest.mark.parametrize("section, key, line, bad", [
    ("solver", "x_max", "x_max = 15", 'x_max = "abc"'),
    ("diffusion", "alpha", "alpha = 0.2", 'alpha = "abc"'),
    ("diffusion", "lo", "lo = -inf", 'lo = "zero"'),
    ("solver", "scan_points", "x_max = 15",
     "x_max = 15\nscan_points = 200.7"),
])
def test_malformed_number_exit_1(tmp_path, section, key, line, bad):
    text = read_config("bm_quadratic_cost.cfg")
    assert line in text
    run = _run_module(tmp_path, text.replace(line, bad))
    assert run.returncode == 1
    assert f"config error: [{section}] {key} must be" in run.stderr
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("key", ["x_tol", "a_refine_tol", "band_tie_rel",
                                 "oracle_max_iter", "gamma_rel_tol"])
def test_removed_solver_key_exit_1(tmp_path, capsys, key):
    text = read_config("bm_quadratic_cost.cfg").replace(
        "x_max = 15", f"x_max = 15\n{key} = 1")
    cfg = write_cfg(tmp_path, text)
    assert main(["solve", cfg, "--out", str(tmp_path / "o")]) == 1
    assert f"unknown [solver] option {key!r}" in capsys.readouterr().err


def test_vanishing_volatility_exit_2(tmp_path):
    # CIR volatility sigma*sqrt(x) vanishes at the natural end lo = 0, where
    # the numeric pair's integration starts
    text = read_config("ou_dividend.cfg").replace(
        'vol = "sigma"', 'vol = "sigma*sqrt(x)"').replace(
        'boundary = "absorbing"', 'boundary = "natural"')
    run = _run_module(tmp_path, text)
    assert run.returncode == 2
    assert "solver error" in run.stderr
    assert "Traceback" not in run.stderr


def test_vanishing_volatility_at_absorbing_end_exit_1(tmp_path):
    # the same CIR volatility with the absorbing end at 0 is rejected at load
    text = read_config("ou_dividend.cfg").replace(
        'vol = "sigma"', 'vol = "sigma*sqrt(x)"')
    assert 'boundary = "absorbing"' in text
    run = _run_module(tmp_path, text)
    assert run.returncode == 1
    assert "config error: volatility must be positive at the absorbing " \
        "boundary; fails at x=0.0 (vol=0.0)" in run.stderr
    assert "Traceback" not in run.stderr


def test_quadrature_overflow_exit_2(tmp_path):
    # without x_max the OU window reaches past where the Hermite quadrature
    # overflows; the NaN ends in a typed error, not a RuntimeWarning
    text = read_config("ou_dividend.cfg").replace("x_max = 2.5\n", "")
    assert "x_max" not in text
    run = _run_module(tmp_path, text)
    assert run.returncode == 2
    assert "solver error" in run.stderr
    assert "Traceback" not in run.stderr
    assert "RuntimeWarning" not in run.stderr


CONSTANT_NEGATIVE_DRIFT = """
[diffusion]
drift = "-0.2"
vol = "1"
alpha = 0.1
lo = 0
hi = inf
boundary = "absorbing"

[reward]
f = "0"
K = "x - y - 0.3"

[solver]
x_max = 10
"""


def test_constant_negative_drift_solves(tmp_path):
    # the fitted drift slope is rounding noise (-8.6e-18), not an OU pull
    run = _run_module(tmp_path, CONSTANT_NEGATIVE_DRIFT)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert "1 band(s), beta*=17.90" in run.stdout
    report = (tmp_path / "o" / "report.txt").read_text()
    assert "pair_provenance = numeric" in report


NATURAL_OU = """
[diffusion]
drift = "-0.5*x"
vol = "1"
alpha = 0.1
lo = -inf
hi = inf
boundary = "natural"

[reward]
f = "-x^2"
K = "-c - lambda*(x - y)"

[params]
c = 1
lambda = 1

[solver]
x_min = -4
x_max = 4
"""


def test_natural_ou_solves_and_oracle_agrees(tmp_path, capsys):
    # natural ends: the OU table spans m -/+ 12 sigma = (-12, 12)
    cfg = write_cfg(tmp_path, NATURAL_OU)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["solve", cfg, "--out", str(tmp_path / "s")]) == 0
        assert main(["iterate", cfg, "--out", str(tmp_path / "i")]) == 0
    assert capsys.readouterr().err == ""
    report = (tmp_path / "s" / "report.txt").read_text()
    assert "pair_provenance = analytic_ou" in report
    (b,) = [band[1] for band in
            json.loads((tmp_path / "s" / "policy.json").read_text())["bands"]]
    _, trig = read_csv(tmp_path / "i" / "triggers.csv")
    header, grid = read_csv(tmp_path / "i" / "oracle_grid.csv")
    xs = grid[:, header.index("x")]
    i = int(np.searchsorted(xs, b))
    cell = xs[i] - xs[i - 1]
    assert np.min(np.abs(trig[:, 0] - b)) <= cell


def test_iterate_outputs(tmp_path):
    out = tmp_path / "it"
    assert main(["iterate", BM, "--out", str(out), "--grid", "800",
                 "--tol", "1e-6"]) == 0
    header, conv = read_csv(out / "convergence.csv")
    assert header == ["iter", "sup_change"]
    assert conv[-1, 1] <= 1e-6
    header, trig = read_csv(out / "triggers.csv")
    assert trig.size >= 1
    assert min(abs(trig[:, 0] - 12.261)) < 0.1
    assert (out / "oracle_grid.csv").exists()
    assert (out / "iterates.csv").exists()
    report = dict(line.split(" = ", 1) for line in
                  (out / "report.txt").read_text().splitlines()
                  if " = " in line)
    assert float(report["final_residual"]) <= 1e-6


@pytest.mark.parametrize("flag, value", [
    ("--tol", "-1"), ("--tol", "nan"), ("--tol", "0"),
    ("--grid", "0"), ("--grid", "-5"), ("--grid", "1"),
])
def test_bad_oracle_override_exit_1(tmp_path, capsys, flag, value):
    out = tmp_path / "o"
    assert main(["iterate", BM, "--out", str(out), flag, value]) == 1
    err = capsys.readouterr().err
    assert "config error: oracle_" in err
    assert not out.exists()


def test_iterate_rerun_identical(tmp_path):
    out1, out2 = tmp_path / "i1", tmp_path / "i2"
    args = ["iterate", BM, "--grid", "400", "--tol", "1e-6"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "oracle_grid.csv").read_bytes() \
        == (out2 / "oracle_grid.csv").read_bytes()


def test_simulate_requires_policy(tmp_path, capsys):
    assert main(["simulate", BM, "--out", str(tmp_path / "s")]) == 1
    assert "policy" in capsys.readouterr().err


@pytest.mark.parametrize("args, policy_text, named", [
    (["--band", "1:abc"], None, "--band"),
    (["--band", "1"], None, "--band"),
    (["--band", "5:12", "--x0", "abc"], None, "--x0"),
    (["--policy"], '{"bands": [[5.0, 12.0]], "intercept": 0.0, '
     '"fixed_point_A": [0.0, 0.0]}', "policy.json"),
    (["--policy"], "[[5.0, 12.0]]", "policy.json"),
], ids=["band_not_numeric", "band_one_number", "x0_not_numeric",
        "policy_without_slope", "policy_a_list"])
def test_malformed_simulate_argument_exit_1(tmp_path, args, policy_text,
                                            named):
    if policy_text is not None:
        policy = tmp_path / "policy.json"
        policy.write_text(policy_text)
        args = args + [str(policy)]
    run = _run_cli("simulate", BM, "--out", str(tmp_path / "s"), *args)
    assert run.returncode == 1
    assert run.stderr.startswith("config error:")
    assert named in run.stderr
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("args, named", [
    (["--x0", "nan,inf"], "x0"),
    (["--x0", "0.5,-inf"], "x0"),
    (["--horizon", "inf"], "horizon"),
    (["--dt", "nan"], "dt"),
], ids=["x0_nan_inf", "x0_second_infinite", "horizon_inf", "dt_nan"])
def test_non_finite_simulate_input_exit_1(tmp_path, args, named):
    out = tmp_path / "s"
    run = _run_cli("simulate", BM, "--band", "5:12", "--out", str(out),
                   *args)
    assert run.returncode == 1
    assert run.stderr.startswith(f"simulation error: {named} must be finite")
    assert "Traceback" not in run.stderr
    assert not (out / "estimates.csv").exists()


def test_simulate_from_policy_file(tmp_path):
    out = tmp_path / "run"
    assert main(["solve", BM, "--out", str(out)]) == 0
    sim_out = tmp_path / "sim"
    assert main(["simulate", BM, "--out", str(sim_out),
                 "--policy", str(out / "policy.json"),
                 "--x0", "0.0", "--paths", "500", "--dt", "5e-3",
                 "--horizon", "70", "--seed", "123"]) == 0
    text = (sim_out / "estimates.csv").read_text()
    assert "# generator = pcg64" in text
    assert "# seed = 123" in text
    header, data = read_csv(sim_out / "estimates.csv")
    assert header == ["x0", "estimate", "std_error", "n_paths"]
    assert data[0, 3] == 500


def test_simulate_bit_identical(tmp_path):
    args = ["simulate", BM, "--band", "5.077:12.261", "--x0", "0.0",
            "--paths", "400", "--dt", "5e-3", "--horizon", "70",
            "--seed", "9"]
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    b1 = (out1 / "estimates.csv").read_bytes()
    assert b1 == (out2 / "estimates.csv").read_bytes()


def test_simulate_explicit_band_grid_of_starts(tmp_path):
    out = tmp_path / "grid"
    x0s = ",".join(f"{v/10:.1f}" for v in range(1, 11))
    assert main(["simulate", str(CONFIG_DIR / "ou_dividend.cfg"),
                 "--out", str(out), "--band", "0.2192:0.622",
                 "--x0", x0s, "--paths", "300", "--dt", "5e-3",
                 "--horizon", "135", "--seed", "4"]) == 0
    _, data = read_csv(out / "estimates.csv")
    assert data.shape[0] == 10
    # monotone-ish value curve: upward overall trend, no numeric assertion
    assert data[-1, 1] > data[0, 1]
    diffs = np.diff(data[:, 1])
    assert np.mean(diffs > -0.02) >= 0.8


def test_check_subcommand(tmp_path, capsys):
    from tests.conftest import NO_INTERVENTION_CONFIG
    cfg = write_cfg(tmp_path, NO_INTERVENTION_CONFIG)
    assert main(["check", cfg, "--out", str(tmp_path / "chk")]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_check_passes_on_multiband_config(tmp_path, capsys):
    cfg = str(CONFIG_DIR / "bm_sine_multiband.cfg")
    assert main(["check", cfg, "--out", str(tmp_path / "chk")]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("command, flag, value", [
    ("check", "--tol", "1e-3"), ("check", "--seed", "1"),
    ("solve", "--tol", "1e-3"), ("solve", "--seed", "1"),
    ("iterate", "--seed", "1"),
    ("simulate", "--grid", "400"), ("simulate", "--tol", "1e-3"),
])
def test_flags_rejected_where_not_read(capsys, command, flag, value):
    # check's oracle run sets its own tolerance; only simulate draws samples
    with pytest.raises(SystemExit) as ex:
        main([command, BM, flag, value])
    assert ex.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as ex:
        main(["--version"])
    assert ex.value.code == 0
