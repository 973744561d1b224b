import dataclasses
import math

import numpy as np
import pytest
from scipy.special import erfc, pbdv

from impulse_bands import (ValidationError, analytic_fundamentals,
                           build_context, hermite_fn, numeric_fundamentals,
                           parabolic_cylinder, scan_slopes)
from impulse_bands.errors import CatalogMissError, ImpulseError
from impulse_bands.model import DiffusionSpec
from impulse_bands.expressions import parse_expr


def bm_spec(alpha=0.2, boundary="natural", lo=-math.inf):
    return DiffusionSpec(
        drift=parse_expr("0", ("x",)),
        vol=parse_expr("1", ("x",)),
        alpha=alpha, lo=lo, hi=math.inf, boundary=boundary)


def ou_spec():
    params = {"delta": 0.1, "m": 0.9, "sigma": 0.35}
    return DiffusionSpec(
        drift=parse_expr("delta*(m - x)", ("x",), params),
        vol=parse_expr("sigma", ("x",), params),
        alpha=0.105, lo=0.0, hi=math.inf, boundary="absorbing")


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def test_hermite_minus_one_at_zero():
    # H_{-1}(0) = int_0^inf exp(-t^2) dt = sqrt(pi)/2
    assert hermite_fn(-1.0, 0.0) == pytest.approx(math.sqrt(math.pi) / 2,
                                                  rel=1e-12)


def test_hermite_positive():
    zs = np.linspace(-3, 3, 13)
    for nu in (-0.5, -1.05, -2.6):
        assert np.all(hermite_fn(nu, zs) > 0)


def test_hermite_derivative_identity():
    # H'_nu(z) = 2 nu H_(nu-1)(z)
    nu, z, h = -1.05, 0.5, 1e-4
    fd = (hermite_fn(nu, z + h) - hermite_fn(nu, z - h)) / (2 * h)
    assert fd == pytest.approx(2 * nu * hermite_fn(nu - 1, z), rel=1e-5)


def test_hermite_rejects_nonnegative_order():
    with pytest.raises(ValidationError):
        hermite_fn(0.0, 1.0)


def test_cylinder_vs_erfc_closed_form():
    # D_{-1}(z) = exp(z^2/4) sqrt(pi/2) erfc(z/sqrt(2))
    for z in np.linspace(-3, 3, 25):
        closed = math.exp(z * z / 4) * math.sqrt(math.pi / 2) \
            * erfc(z / math.sqrt(2))
        assert parabolic_cylinder(-1.0, z) == pytest.approx(closed, rel=1e-8)


def test_cylinder_vs_scipy():
    for nu in (-0.35, -1.05, -2.05):
        for z in np.linspace(-4, 4, 17):
            ref = pbdv(nu, z)[0]
            assert parabolic_cylinder(nu, z) == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("nu", [-0.3, -1.05, -2.05, -3.5])
def test_cylinder_vs_mpmath(nu):
    mpmath = pytest.importorskip("mpmath")
    zs = np.linspace(-6.0, 10.0, 33)
    ref = np.array([float(mpmath.pcfd(nu, z)) for z in zs])
    np.testing.assert_allclose(parabolic_cylinder(nu, zs), ref, rtol=1e-9)


def test_cylinder_decay_at_plus_infinity():
    assert parabolic_cylinder(-1.05, 10.0) < parabolic_cylinder(-1.05, 5.0)
    assert parabolic_cylinder(-1.05, 10.0) > 0


def test_cylinder_rejects_nonnegative_order():
    with pytest.raises(ValidationError):
        parabolic_cylinder(0.5, 1.0)


# ---------------------------------------------------------------------------
# analytic catalog
# ---------------------------------------------------------------------------

def test_bm_pair_values():
    pair = analytic_fundamentals(bm_spec())
    s = math.sqrt(0.4)
    assert pair.F(0.0) == pytest.approx(1.0)
    assert pair.psi(0.0) == pytest.approx(1.0)
    assert pair.phi(0.0) == pytest.approx(1.0)
    assert pair.F(1.0) == pytest.approx(math.exp(2 * s), rel=1e-12)
    assert pair.F(1.0) == pytest.approx(3.5427, rel=1e-4)
    assert pair.F_inv(pair.F(1.7)) == pytest.approx(1.7, rel=1e-12)


def test_ou_pair_monotone():
    pair = analytic_fundamentals(ou_spec())
    xs = np.linspace(0.0, 2.0, 41)
    psi = pair.psi(xs)
    phi = pair.phi(xs)
    assert np.all(np.diff(psi) > 0)
    assert np.all(np.diff(phi) < 0)
    assert np.all(psi > 0) and np.all(phi > 0)
    assert np.all(np.diff(pair.F(xs)) > 0)


def ou_exact(delta, m, sigma, alpha):
    """Untabulated (psi, phi): the cylinder quadrature at every point."""
    nu = -alpha / delta
    root = math.sqrt(2.0 * delta)

    def make(sign):
        def u(x):
            z = (np.asarray(x, dtype=float) - m) / sigma
            return np.exp(0.5 * delta * z * z) \
                * parabolic_cylinder(nu, sign * z * root)
        return u

    return make(-1.0), make(1.0)


def natural_ou_spec(drift, sigma):
    return DiffusionSpec(
        drift=parse_expr(drift, ("x",)),
        vol=parse_expr(str(sigma), ("x",)),
        alpha=0.105, lo=-math.inf, hi=math.inf, boundary="natural")


# (spec, (delta, m, sigma, alpha), pair window)
OU_TABLE_CASES = {
    "ou_dividend": (ou_spec, (0.1, 0.9, 0.35, 0.105), (0.0, 5.1)),
    "natural": (lambda: natural_ou_spec("0.1*(0.9 - x)", 0.35),
                (0.1, 0.9, 0.35, 0.105), (-3.3, 5.1)),
    "natural_wide": (lambda: natural_ou_spec("-0.5*x", 1.0),
                     (0.5, 0.0, 1.0, 0.105), (-12.0, 12.0)),
}


@pytest.mark.parametrize("case", sorted(OU_TABLE_CASES))
def test_ou_table_matches_quadrature(case):
    make_spec, params, window = OU_TABLE_CASES[case]
    pair = analytic_fundamentals(make_spec())
    np.testing.assert_allclose(pair.window, window, rtol=1e-12, atol=1e-12)
    xs = np.linspace(*pair.window, 401)
    psi, phi = ou_exact(*params)
    np.testing.assert_allclose(pair.psi(xs), psi(xs), rtol=1e-11)
    np.testing.assert_allclose(pair.phi(xs), phi(xs), rtol=1e-11)
    # outside the window the quadrature prices the point: a degree-40
    # table extrapolated this far would be off by orders of magnitude
    x_out = pair.window[1] + 1.3
    assert pair.psi(x_out) == pytest.approx(float(psi(x_out)), rel=1e-12)
    assert pair.phi(x_out) == pytest.approx(float(phi(x_out)), rel=1e-12)


def test_ou_table_keeps_the_solution(ou_cfg, ou_ctx, ou_scan):
    psi, phi = ou_exact(0.1, 0.9, 0.35, 0.105)
    exact = dataclasses.replace(ou_ctx.pair, psi=psi, phi=phi)
    ctx = build_context(ou_cfg.problem, ou_cfg.solver, pair=exact)
    scan = scan_slopes(ctx)
    assert ou_scan.policy.slope == pytest.approx(scan.policy.slope, rel=1e-9)
    np.testing.assert_allclose(ou_scan.policy.bands, scan.policy.bands,
                               rtol=1e-6)


def test_zero_rate_bm_pair():
    pair = analytic_fundamentals(bm_spec(alpha=0.0, boundary="absorbing",
                                         lo=0.0))
    xs = np.linspace(0.0, 10.0, 11)
    np.testing.assert_allclose(pair.F(xs), xs)
    assert pair.F_limit_lo == 0.0


def test_not_in_catalog():
    spec = DiffusionSpec(
        drift=parse_expr("-x^3", ("x",)),
        vol=parse_expr("1", ("x",)),
        alpha=0.3, lo=-math.inf, hi=math.inf, boundary="natural")
    with pytest.raises(CatalogMissError):
        analytic_fundamentals(spec)


def test_wronskian_positive():
    for pair in (analytic_fundamentals(bm_spec()),
                 analytic_fundamentals(ou_spec())):
        xs = np.linspace(0.1, 2.0, 17)
        assert np.all(pair.wronskian(xs) > 0)


def _ode_residual(spec, pair, xs, h=1e-4):
    out = []
    sig = np.asarray(spec.vol(xs), dtype=float)
    mu = np.asarray(spec.drift(xs), dtype=float)
    for u in (pair.psi, pair.phi):
        u0, up, um = u(xs), u(xs + h), u(xs - h)
        d1 = (up - um) / (2 * h)
        d2 = (up - 2 * u0 + um) / (h * h)
        res = 0.5 * sig * sig * d2 + mu * d1 - spec.alpha * u0
        out.append(np.max(np.abs(res) / (1.0 + np.abs(u0))))
    return max(out)


def test_ode_residual_analytic():
    spec = bm_spec()
    assert _ode_residual(spec, analytic_fundamentals(spec),
                         np.linspace(-5, 5, 21)) < 1e-6
    spec = ou_spec()
    assert _ode_residual(spec, analytic_fundamentals(spec),
                         np.linspace(0.05, 2.2, 21)) < 1e-6


# ---------------------------------------------------------------------------
# numeric construction
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def numeric_bm_pair():
    return numeric_fundamentals(bm_spec(), c=0.0, tol=1e-8, window=(-12, 12))


def test_numeric_bm_matches_analytic(numeric_bm_pair):
    # at alpha = 50 each branch spans e^360 over the extended window
    fast = numeric_fundamentals(bm_spec(50.0), c=0.0, tol=1e-8,
                                window=(-12, 12))
    xs = np.linspace(-5.0, 5.0, 41)
    for alpha, pair in ((0.2, numeric_bm_pair), (50.0, fast)):
        s = math.sqrt(2.0 * alpha)
        np.testing.assert_allclose(pair.psi(xs), np.exp(s * xs), rtol=1e-11)
        np.testing.assert_allclose(pair.phi(xs), np.exp(-s * xs), rtol=1e-11)
        np.testing.assert_allclose(pair.dpsi(xs), s * np.exp(s * xs),
                                   rtol=1e-11)
        np.testing.assert_allclose(pair.dphi(xs), -s * np.exp(-s * xs),
                                   rtol=1e-11)


def test_numeric_normalization(numeric_bm_pair):
    assert numeric_bm_pair.psi(0.0) == pytest.approx(1.0, abs=1e-12)
    assert numeric_bm_pair.phi(0.0) == pytest.approx(1.0, abs=1e-12)


def test_numeric_ou_matches_catalog():
    spec = ou_spec()
    c = 1.0
    num = numeric_fundamentals(spec, c=c, tol=1e-8, window=(0.0, 2.5))
    ana = analytic_fundamentals(spec)
    xs = np.linspace(0.0, 2.0, 33)
    # numeric pairs are normalized at c; rescale the catalog to compare
    for u, du, ref, dref in ((num.psi, num.dpsi, ana.psi, ana.dpsi),
                             (num.phi, num.dphi, ana.phi, ana.dphi)):
        np.testing.assert_allclose(u(xs), ref(xs) / ref(c), rtol=1e-11)
        np.testing.assert_allclose(du(xs), dref(xs) / ref(c), rtol=1e-11)


def zero_rate_spec(drift=0.3):
    return DiffusionSpec(
        drift=parse_expr(str(drift), ("x",)),
        vol=parse_expr("1", ("x",)),
        alpha=0.0, lo=0.0, hi=math.inf, boundary="absorbing")


@pytest.mark.parametrize("drift", [0.3, 1.5, -0.3])
def test_numeric_zero_rate_is_scale_function(drift):
    # scale density exp(-2 drift (x - c)); psi'(c) = 1 fixes psi up to a
    # constant, so F differences are exact integrals of that density.  At
    # drift 1.5 the density falls by e^-30 across the window and F still
    # has to resolve its variation near x = 10
    k, c = 2.0 * drift, 5.0
    pair = numeric_fundamentals(zero_rate_spec(drift), c=c, tol=1e-8,
                                window=(0.0, 10.0))
    xs = np.linspace(0.0, 10.0, 101)
    density = np.exp(-k * (xs - c))
    psi = pair.psi(xs)
    # fit psi = A + B (-density / k) in relative terms: at drift 1.5 psi
    # runs from -1e6 to -1e-7 across the window
    basis = np.column_stack([np.ones_like(xs), -density / k]) / psi[:, None]
    coef, *_ = np.linalg.lstsq(basis, np.ones_like(xs), rcond=None)
    np.testing.assert_allclose(basis @ coef, 1.0, rtol=1e-10)
    np.testing.assert_allclose(coef[1], 1.0, rtol=1e-10)
    np.testing.assert_allclose(pair.dpsi(xs), density, rtol=1e-9)
    F = pair.F(xs)
    assert np.all(np.diff(F) > 0)
    np.testing.assert_allclose(np.diff(F), np.diff(-density / k), rtol=1e-9)
    assert np.all(pair.phi(xs) == 1.0)
    assert np.all(pair.dphi(xs) == 0.0)


@pytest.mark.parametrize("spec", [bm_spec(), zero_rate_spec()],
                         ids=["bm", "zero_rate"])
def test_numeric_pair_raises_outside_window(spec):
    # compute_g and the probe marches stop on this error
    pair = numeric_fundamentals(spec, c=5.0, tol=1e-8, window=(0.0, 10.0))
    lo, hi = pair.window
    for fn in (pair.psi, pair.phi, pair.dpsi, pair.dphi):
        assert np.all(np.isfinite(fn(np.array([lo, hi]))))
        assert fn(np.array([])).shape == (0,)
        for x in (lo - 1e-6, hi + 1e-6):
            with pytest.raises(ImpulseError, match="outside the constructed"):
                fn(x)


@pytest.mark.xfail(strict=True, reason=(
    "extension margins too short for GBM: every left candidate crosses "
    "x = 0, and the right margin is capped at 4*span while the WKB rate "
    "gap decays like 1/x"))
def test_numeric_gbm_matches_power_law():
    mu, sigma, alpha, c = 0.05, 0.3, 0.1, 1.0
    spec = DiffusionSpec(
        drift=parse_expr(f"{mu}*x", ("x",)),
        vol=parse_expr(f"{sigma}*x", ("x",)),
        alpha=alpha, lo=0.0, hi=math.inf, boundary="natural")
    pair = numeric_fundamentals(spec, c=c, tol=1e-8, window=(0.5, 4.0))
    # (sigma^2/2) r (r - 1) + mu r - alpha = 0
    r_minus, r_plus = sorted(np.roots(
        [0.5 * sigma ** 2, mu - 0.5 * sigma ** 2, -alpha]).real)
    xs = np.linspace(0.5, 4.0, 36)
    np.testing.assert_allclose(pair.psi(xs), (xs / c) ** r_plus, rtol=1e-8)
    np.testing.assert_allclose(pair.phi(xs), (xs / c) ** r_minus, rtol=1e-8)


def test_numeric_ode_residual(numeric_bm_pair):
    spec = bm_spec()
    assert _ode_residual(spec, numeric_bm_pair,
                         np.linspace(-8, 8, 33)) < 1e-6


@pytest.mark.parametrize("which", ["ou", "numeric"])
def test_F_inv_round_trip_on_arrays(which, numeric_bm_pair):
    pair = analytic_fundamentals(ou_spec()) if which == "ou" \
        else numeric_bm_pair
    lo, hi = pair.window
    xs = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 57)
    back = pair.F_inv(pair.F(xs))
    assert back.shape == xs.shape
    assert np.max(np.abs(back - xs)) <= 1e-10 * max(1.0, abs(lo), abs(hi))
    with pytest.raises(ImpulseError):
        pair.F_inv(np.array([float(pair.F(xs[3])), 2.0 * float(pair.F(hi))]))


def test_scalar_in_float_out_array_in_same_shape_out(numeric_bm_pair,
                                                     bm_vrep):
    pair = numeric_bm_pair
    lo, hi = pair.window
    xs = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 6)
    b_top = bm_vrep.policy.bands[-1][1]
    xv = np.linspace(b_top - 3.0, b_top + 3.0, 6)  # both value pieces
    for fn, arr in ((pair.psi, xs), (pair.F_inv, pair.F(xs)),
                    (bm_vrep.value, xv), (bm_vrep.derivative, xv)):
        grid = arr.reshape(2, 3)
        out = fn(grid)
        assert isinstance(out, np.ndarray) and out.shape == grid.shape
        for scalar in (grid[1, 2], float(grid[1, 2])):
            one = fn(scalar)
            assert type(one) is float
            assert one == pytest.approx(out[1, 2], rel=1e-12, abs=1e-300)


def test_numeric_interior_anchor_required():
    with pytest.raises(ValidationError):
        numeric_fundamentals(bm_spec(), c=30.0, window=(-10, 10))
