import math

import numpy as np
import pytest

from impulse_bands import (SolverError, build_context, concavity_profile,
                           finiteness_check, load_config)
from impulse_bands.expressions import parse_expr
from impulse_bands.model import (DiffusionSpec, ImpulseProblem, SolverOptions)
from impulse_bands.simulate import SimConfig, simulate_policy
from impulse_bands.model import BandPolicy
from tests.conftest import read_config

OU_LINEAR_REWARD = """
[diffusion]
drift = "delta*(m - x)"
vol = "sigma"
alpha = 0.105
lo = -inf
hi = inf
boundary = "natural"

[reward]
f = "x"
K = "-1 + 0*(x - y)"

[params]
delta = 0.1
m = 0.9
sigma = 0.35

[solver]
x_min = -2.5
x_max = 4.5
"""


def _direct_problem(k_text, f_text="0", alpha=0.2):
    params = {}
    return ImpulseProblem(
        diffusion=DiffusionSpec(
            drift=parse_expr("0", ("x",)),
            vol=parse_expr("1", ("x",)),
            alpha=alpha, lo=-math.inf, hi=math.inf, boundary="natural"),
        running_reward=parse_expr(f_text, ("x",), params),
        intervention_reward=parse_expr(k_text, ("x", "y"), params),
    )


# ---------------------------------------------------------------------------
# resolvent g
# ---------------------------------------------------------------------------

def test_g_bm_quadratic(bm_ctx):
    assert bm_ctx.g(0.0) == pytest.approx(-25.0, rel=1e-12)
    xs = np.linspace(-6, 6, 25)
    np.testing.assert_allclose(
        bm_ctx.g(xs), -(xs ** 2 / 0.2 + 1 / 0.04), rtol=1e-12)
    np.testing.assert_allclose(bm_ctx.dg(xs), -2 * xs / 0.2, rtol=1e-12,
                               atol=1e-10)


def test_g_zero(ou_ctx):
    xs = np.linspace(0.0, 2.0, 9)
    assert np.all(ou_ctx.g(xs) == 0.0)
    assert ou_ctx.g_provenance == "zero"


@pytest.fixture(scope="module")
def ou_linear_ctx():
    cfg = load_config(OU_LINEAR_REWARD)
    return build_context(cfg.problem, cfg.solver)


def test_g_ou_linear_reward_closed_form(ou_linear_ctx):
    # E int e^{-as} X_s ds for OU: m/a + (x - m)/(a + delta)
    ctx = ou_linear_ctx
    assert ctx.g_provenance == "resolvent_quadrature"
    alpha, delta, m = 0.105, 0.1, 0.9
    for x in (0.3, 0.9, 1.7):
        closed = m / alpha + (x - m) / (alpha + delta)
        assert float(ctx.g(x)) == pytest.approx(closed, rel=1e-6)
    # residual of (A - alpha) g = -f by finite differences
    xs = np.linspace(-1.0, 3.0, 41)
    h = 1e-4
    d1 = (ctx.g(xs + h) - ctx.g(xs - h)) / (2 * h)
    d2 = (ctx.g(xs + h) - 2 * ctx.g(xs) + ctx.g(xs - h)) / (h * h)
    res = 0.5 * 0.35 ** 2 * d2 + 0.1 * (0.9 - xs) * d1 - alpha * ctx.g(xs) + xs
    assert np.max(np.abs(res)) < 1e-4


@pytest.mark.slow
def test_g_ou_linear_reward_vs_monte_carlo(ou_linear_ctx):
    # three probe starts, empty policy: the simulated discounted running
    # reward must match g within 3 standard errors
    ctx = ou_linear_ctx
    empty = BandPolicy(bands=(), slope=0.0, intercept=0.0,
                       fixed_point_A=(0.0, 0.0))
    for x0 in (0.5, 0.9, 1.4):
        cfg = SimConfig(x0=x0, dt=2e-3, horizon=135.0, n_paths=4000, seed=9)
        res = simulate_policy(ctx, empty, cfg)
        assert abs(res.estimate - float(ctx.g(x0))) <= 3 * res.std_error


# ---------------------------------------------------------------------------
# kbar and the transformed reward
# ---------------------------------------------------------------------------

def test_kbar_at_published_band(bm_ctx):
    assert bm_ctx.kbar(12.261, 5.077) == pytest.approx(113.58096, rel=1e-9)


def test_kbar_reduces_to_k_when_f_zero(ou_ctx):
    K = ou_ctx.problem.intervention_reward
    for x, y in ((0.9, 0.3), (1.7, 0.2)):
        assert ou_ctx.kbar(x, y) == pytest.approx(float(K(x, y)))


def test_kbar_diagonal_is_fixed_cost(bm_ctx):
    xs = np.linspace(-4, 8, 9)
    K = bm_ctx.problem.intervention_reward
    np.testing.assert_allclose(bm_ctx.kbar(xs, xs),
                               np.broadcast_to(K(xs, xs), xs.shape))
    assert np.all(bm_ctx.kbar(xs, xs) < 0)


def test_transformed_reward_piecewise_form(bm_ctx):
    # below the target the curve kbar_extended/phi is -c sqrt(F)
    a = 5.077
    pair = bm_ctx.pair
    xs = np.array([a - 3.64, a - 0.95, a - 0.083])
    np.testing.assert_allclose(bm_ctx.kbar_extended(xs, a) / pair.phi(xs),
                               -150.0 * np.sqrt(pair.F(xs)), rtol=1e-9)
    # at the target the shifted reward equals K(a,a)/phi(a)
    K = bm_ctx.problem.intervention_reward
    assert bm_ctx.kbar_extended(a, a) / pair.phi(a) == pytest.approx(
        float(K(a, a)) / float(pair.phi(a)), rel=1e-9)


# ---------------------------------------------------------------------------
# concavity diagnostics
# ---------------------------------------------------------------------------

def test_concavity_profile_quadratic_cost(bm_ctx):
    # generator of the shifted reward above the target is the quadratic
    # p(x) = -x^2 + a^2 + lambda alpha (x - a) + alpha c + 1/alpha;
    # the transformed curve is concave beyond its largest root
    a = 5.077
    prof = concavity_profile(bm_ctx, lambda x: bm_ctx.kbar_extended(x, a),
                             x_range=(a + 0.01, 15.0))
    r = np.roots([-1.0, 50 * 0.2, a * a - 50 * 0.2 * a + 0.2 * 150 + 5.0])
    k_root = float(np.max(r))
    assert prof.pattern == "convex_concave"
    assert prof.sign_changes[-1] == pytest.approx(k_root, abs=0.1)
    beyond = prof.xs > k_root + 0.2
    assert np.all(prof.signs[beyond] <= 0)
    # below the target the extended curve is the constant fixed cost, a
    # convex signal under the killed generator
    low = concavity_profile(bm_ctx, lambda x: bm_ctx.kbar_extended(x, a),
                            x_range=(-10.0, a - 0.01))
    assert np.all(low.signs >= 0)


def test_concavity_profile_of_psi_is_flat(bm_ctx):
    prof = concavity_profile(bm_ctx, bm_ctx.pair.psi)
    assert np.all(prof.signs == 0)
    assert prof.sign_changes == ()


def test_concavity_profile_ou_linear_case():
    # gamma = 1 gives exactly one sign change: convex then concave
    text = read_config("ou_dividend.cfg").replace("gamma = 0.75",
                                                  "gamma = 1")
    cfg = load_config(text)
    ctx = build_context(cfg.problem, cfg.solver)
    prof = concavity_profile(ctx, lambda x: ctx.kbar_extended(x, 0.05))
    assert prof.pattern == "convex_concave"
    assert len(prof.sign_changes) == 1


# ---------------------------------------------------------------------------
# finiteness and boundary data
# ---------------------------------------------------------------------------

def test_finiteness_examples(bm_ctx, ou_ctx):
    fin = finiteness_check(bm_ctx, 5.0)
    assert fin.finite and fin.q is not None
    fin = finiteness_check(ou_ctx, 0.22)
    assert fin.finite


def test_finiteness_gamma_one_variant():
    text = read_config("ou_dividend.cfg").replace("gamma = 0.75",
                                                  "gamma = 1")
    cfg = load_config(text)
    ctx = build_context(cfg.problem, cfg.solver)
    assert finiteness_check(ctx, 0.3).finite


def test_finiteness_detects_unbounded_slope():
    # kbar/phi read in the transformed coordinate grows like y^2:
    # exp(3 sqrt(2 alpha) x) = F(x)^(3/2) and dividing by phi adds
    # another half power
    rate = 3.0 * math.sqrt(2.0 * 0.2)
    problem = _direct_problem(f"exp({rate!r}*x) - exp({rate!r}*y) - 1")
    ctx = build_context(problem, SolverOptions(x_min=-15, x_max=15))
    fin = finiteness_check(ctx, 1.0)
    assert not fin.finite


def test_boundary_data_natural_zero(bm_ctx):
    assert bm_ctx.F_lo == 0.0
    assert abs(bm_ctx.D) < 1e-12


def test_boundary_data_absorbing(ou_ctx, sine_ctx):
    # P = 0 and f = 0 force D = 0 at the absorbing point
    assert ou_ctx.D == 0.0
    assert ou_ctx.F_lo == pytest.approx(
        float(ou_ctx.pair.F(0.0)), rel=1e-12)
    assert sine_ctx.D == 0.0
    assert sine_ctx.F_lo == 0.0


def test_boundary_value_divergence_reported():
    problem = _direct_problem("exp(-3*x) + 0*y")
    with pytest.raises(SolverError, match="ill-posed"):
        build_context(problem, SolverOptions(x_min=-15, x_max=15))
