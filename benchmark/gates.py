"""Correctness gates for every benchmark operation.

Each gate compares a program output with a computation made apart from
the program (a closed form, scipy root finding, a brute-force search,
mpmath, finite differences of the ODE) or with a property the method
guarantees (value matching and smooth fit at the trigger, agreement of the
grid oracle with the direct value line, the Monte Carlo mean).  No gate
compares with a stored copy of the program's own output.

A gate function returns a list of ``(name, ok, detail)`` triples; an
operation passes when every triple is ok.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.optimize import fsolve, minimize

from workloads import MC_BIAS_Z, MC_Z

TWO_PI = 2.0 * math.pi
N_POINTS = 8          # seeded sample points for pair and ODE gates

# tolerances, fixed before measuring the program against them
PAIR_REL = 1e-9                   # catalog pairs vs closed form / mpmath
ODE_REL = 1e-6                    # finite-difference ODE residual, numeric pair
G_ODE_REL = 1e-3                  # (A - alpha) g + f residual, interpolated g
FSOLVE_REL = 1e-6                 # bm_quadratic_cost band and slope
BRUTE_REL = 1e-6                  # bm_sine_multiband band and slope
PUBLISHED_REL = 1e-2              # ou_dividend published band and slope
VALUE_MATCH_REL = 1e-8            # v(b-) = v(b) at the top trigger
SMOOTH_FIT_REL = 1e-3             # |v'(b-) - v'(b+)| <= 1e-3 |v'(b)|
ORACLE_REL = 1e-2                 # oracle values vs the value line
OU_PUBLISHED = dict(a=0.2192, b=0.6220, beta=0.5749)


def _check(name, ok, detail):
    return (name, bool(ok), detail)


def _max_rel(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.abs(want)))


# ---------------------------------------------------------------------------
# References, computed once per run
# ---------------------------------------------------------------------------

def bm_quadratic_reference(alpha, c, lam):
    """(A, a, b) for BM with f = -x^2 and K = -c - lam (x - y).

    g = -(x^2/alpha + 1/alpha^2) solves (A - alpha) g = x^2, and the value
    is v = g + A exp(sqrt(2 alpha) x) below the trigger b.  Value matching
    at b, smooth fit at b and optimality of the target a give three
    equations in (A, a, b).
    """
    s = math.sqrt(2.0 * alpha)

    def v(x, A):
        return -(x * x / alpha + 1.0 / alpha ** 2) + A * math.exp(s * x)

    def dv(x, A):
        return -2.0 * x / alpha + A * s * math.exp(s * x)

    def equations(p):
        A, a, b = p
        return [v(b, A) - v(a, A) - (-c - lam * (b - a)),
                dv(b, A) + lam,
                dv(a, A) + lam]

    sol, _, ier, msg = fsolve(equations, [0.05, 5.0, 12.0], xtol=1e-14,
                              full_output=True)
    if ier != 1:
        raise RuntimeError(f"reference fsolve failed: {msg}")
    return tuple(float(p) for p in sol)


def sine_reference(c, delta):
    """(a, b, beta) maximising K(b, a)/(b - a), K = -c (sin b - sin a) - delta.

    With zero discount and absorption at 0 the pair is (x, 1), so the value
    line through the origin has slope max over a < b of K(b, a)/(b - a).
    The ratio is 2 pi periodic in a: a grid search over one period and
    b - a in (0, 2 pi] is polished by Nelder-Mead.
    """
    a = np.linspace(0.0, TWO_PI, 1201)[:, None]
    d = np.linspace(TWO_PI / 1200, TWO_PI, 1200)[None, :]
    ratio = (-c * (np.sin(a + d) - np.sin(a)) - delta) / d
    i, j = np.unravel_index(int(np.argmax(ratio)), ratio.shape)

    def neg(p):
        return -(-c * (math.sin(p[0] + p[1]) - math.sin(p[0])) - delta) / p[1]

    res = minimize(neg, [float(a[i, 0]), float(d[0, j])],
                   method="Nelder-Mead",
                   options=dict(xatol=1e-13, fatol=1e-15, maxiter=4000))
    a_star = float(res.x[0]) % TWO_PI
    return a_star, a_star + float(res.x[1]), float(-res.fun)


def ou_pair_reference(xs, delta, m, sigma, alpha):
    """psi, phi and their derivatives from mpmath.pcfd at 30 digits.

    psi(x) = exp(delta z^2 / 2) D_nu(-z sqrt(2 delta)), phi the same with
    +z, z = (x - m)/sigma and nu = -alpha/delta; derivatives by mpmath.diff.
    """
    nu = -alpha / delta
    with mpmath.workdps(30):
        root = mpmath.sqrt(2 * mpmath.mpf(delta))

        def make(sign):
            def u(x):
                z = (x - m) / mpmath.mpf(sigma)
                return mpmath.exp(delta * z * z / 2) \
                    * mpmath.pcfd(nu, sign * z * root)
            return u

        psi, phi = make(-1), make(1)
        out = {name: np.array([float(fn(mpmath.mpf(float(x)))) for x in xs])
               for name, fn in (("psi", psi), ("phi", phi))}
        out["dpsi"] = np.array([float(mpmath.diff(psi, mpmath.mpf(float(x))))
                                for x in xs])
        out["dphi"] = np.array([float(mpmath.diff(phi, mpmath.mpf(float(x))))
                                for x in xs])
        out["F_lo"] = float(psi(mpmath.mpf(0)) / phi(mpmath.mpf(0)))
    return out


def references(workload, seed, window):
    """Everything a workload's gates need that does not depend on the program
    output; ``seed`` picks the sample points."""
    rng = np.random.default_rng(seed)
    lo, hi = window
    xs = np.sort(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo),
                             N_POINTS))
    p = workload.model
    ref = {"xs": xs}
    if workload.name == "bm_quadratic_cost":
        ref["Aab"] = bm_quadratic_reference(p["alpha"], p["c"], p["lam"])
    elif workload.name == "bm_sine_multiband":
        ref["ab_beta"] = sine_reference(p["c"], p["delta"])
    elif workload.name == "ou_dividend":
        ref["pair"] = ou_pair_reference(xs, p["delta"], p["m"], p["sigma"],
                                        p["alpha"])
    return ref


# ---------------------------------------------------------------------------
# setup: load_config + build_context
# ---------------------------------------------------------------------------

def _pair_vs(pair, xs, want):
    err = max(_max_rel(getattr(pair, k)(xs), want[k]) for k in want)
    return _check("pair_reference", err <= PAIR_REL,
                  f"max rel error {err:.2e} (tol {PAIR_REL:.0e})")


def _fd(fn, xs, h):
    """First and second derivative by the 5-point central stencil."""
    f = {k: np.asarray(fn(xs + k * h), dtype=float) for k in (-2, -1, 0, 1, 2)}
    d1 = (f[-2] - 8 * f[-1] + 8 * f[1] - f[2]) / (12 * h)
    d2 = (-f[-2] + 16 * f[-1] - 30 * f[0] + 16 * f[1] - f[2]) / (12 * h * h)
    return f[0], d1, d2


def _rel_residual(*terms):
    """Largest |sum of terms| / sum of |terms| over the sample points."""
    return float(np.max(np.abs(sum(terms)) / sum(np.abs(t) for t in terms)))


def gate_setup(workload, ref, ctx):
    xs = ref["xs"]
    p = workload.model
    out = []
    if workload.name == "bm_quadratic_cost":
        s = math.sqrt(2.0 * p["alpha"])
        out.append(_pair_vs(ctx.pair, xs, {
            "psi": np.exp(s * xs), "phi": np.exp(-s * xs),
            "dpsi": s * np.exp(s * xs), "dphi": -s * np.exp(-s * xs)}))
        g_ref = -(xs * xs / p["alpha"] + 1.0 / p["alpha"] ** 2)
        err = _max_rel(ctx.g(xs), g_ref)
        out.append(_check("g_closed_form", err <= PAIR_REL,
                          f"max rel error {err:.2e}"))
        out.append(_check("pin", ctx.F_lo == 0.0 and abs(ctx.D) <= 1e-12,
                          f"(F_lo, D) = ({ctx.F_lo}, {ctx.D})"))
    elif workload.name == "bm_sine_multiband":
        ones = np.ones_like(xs)
        out.append(_pair_vs(ctx.pair, xs, {
            "psi": xs, "phi": ones, "dpsi": ones}))
        out.append(_check("g_zero", np.all(ctx.g(xs) == 0.0), "f = 0"))
        out.append(_check("pin", ctx.F_lo == 0.0 and ctx.D == 0.0,
                          f"(F_lo, D) = ({ctx.F_lo}, {ctx.D})"))
    elif workload.name == "ou_dividend":
        want = {k: ref["pair"][k] for k in ("psi", "phi", "dpsi", "dphi")}
        out.append(_pair_vs(ctx.pair, xs, want))
        err = abs(ctx.F_lo / ref["pair"]["F_lo"] - 1.0)
        out.append(_check("pin", err <= PAIR_REL and ctx.D == 0.0,
                          f"F_lo rel error {err:.2e}, D = {ctx.D}"))
    else:
        pair = ctx.pair
        mu = p["delta"] * (p["m"] - xs)
        sig = p["sigma"] * (1.0 + p["vol_slope"] * xs)
        worst = 0.0
        for name in ("psi", "phi"):
            u, du, d2u = _fd(getattr(pair, name), xs, 1e-3)
            worst = max(worst, _rel_residual(0.5 * sig * sig * d2u, mu * du,
                                             -p["alpha"] * u))
        out.append(_check("pair_ode_residual", worst <= ODE_REL,
                          f"max rel residual {worst:.2e} (tol {ODE_REL:.0e})"))
        w = np.asarray(pair.wronskian(xs), dtype=float)
        out.append(_check("wronskian_positive", np.all(w > 0),
                          f"min Wronskian {float(np.min(w)):.3e}"))
        g, dg, d2g = _fd(ctx.g, xs, 2e-2)
        res = _rel_residual(0.5 * sig * sig * d2g, mu * dg, -p["alpha"] * g,
                            p["f_slope"] * xs)
        out.append(_check("g_ode_residual", res <= G_ODE_REL,
                          f"max rel residual {res:.2e} (tol {G_ODE_REL:.0e})"))
    return out


# ---------------------------------------------------------------------------
# solve: scan_slopes + assemble_value + the 1000-point value grid
# ---------------------------------------------------------------------------

def _trigger_gates(vrep):
    """Value matching and smooth fit at the top trigger, by one-sided
    second-order differences of the assembled value function."""
    a, b = vrep.policy.bands[-1]
    v = vrep.value
    vb = v(b)
    v_left = v(np.nextafter(b, -math.inf))
    match = abs(v_left - vb)
    h = 1e-5 * max(1.0, abs(b))
    left = (3 * v_left - 4 * v(b - h) + v(b - 2 * h)) / (2 * h)
    right = (-3 * vb + 4 * v(b + h) - v(b + 2 * h)) / (2 * h)
    gap = abs(left - right)
    return [
        _check("value_matching", match <= VALUE_MATCH_REL * (1 + abs(vb)),
               f"|v(b-) - v(b)| = {match:.2e} at b = {b:.6f}"),
        _check("smooth_fit", gap <= SMOOTH_FIT_REL * abs(right),
               f"|v'(b-) - v'(b+)| = {gap:.2e}, v'(b+) = {right:.4g}"),
    ]


def gate_solve(workload, ref, ctx, scan, vrep, values):
    policy = scan.policy
    out = [_check("value_grid_finite",
                  all(np.all(np.isfinite(v)) for v in values),
                  "v and dv on the 1000-point grid")]
    if policy.is_empty:
        return out + [_check("policy_nonempty", False, "no band found")]
    out += _trigger_gates(vrep)
    if workload.name == "bm_quadratic_cost":
        A, a_ref, b_ref = ref["Aab"]
        (a, b), = policy.bands
        err = max(abs(a / a_ref - 1), abs(b / b_ref - 1),
                  abs(policy.slope / A - 1))
        out.append(_check("band_vs_fsolve", err <= FSOLVE_REL,
                          f"max rel error {err:.2e} against "
                          f"(A, a, b) = ({A:.7g}, {a_ref:.7g}, {b_ref:.7g})"))
    elif workload.name == "bm_sine_multiband":
        a_ref, b_ref, beta_ref = ref["ab_beta"]
        bands = np.asarray(policy.bands, dtype=float)
        k = np.arange(len(bands)) * TWO_PI
        err = max(_max_rel(bands[:, 0], a_ref + k),
                  _max_rel(bands[:, 1], b_ref + k),
                  abs(policy.slope / beta_ref - 1))
        out.append(_check("bands_vs_brute_force", err <= BRUTE_REL,
                          f"max rel error {err:.2e} against (a, b, beta) = "
                          f"({a_ref:.7g}, {b_ref:.7g}, {beta_ref:.7g}) "
                          f"+ 2 pi k, {len(bands)} bands"))
    elif workload.name == "ou_dividend":
        (a, b), = policy.bands
        want = OU_PUBLISHED
        err = max(abs(a / want["a"] - 1), abs(b / want["b"] - 1),
                  abs(policy.slope / want["beta"] - 1))
        out.append(_check("band_vs_published", err <= PUBLISHED_REL,
                          f"max rel error {err:.2e} against {want}"))
    return out


# ---------------------------------------------------------------------------
# iterate: value_iteration
# ---------------------------------------------------------------------------

def gate_iterate(workload, ctx, scan, og):
    policy = scan.policy
    out = [_check("oracle_converged", og.converged,
                  f"{og.n_iter} sweeps, final change {og.sup_change:.2e}")]
    b_top = policy.bands[-1][1]
    sel = og.xs <= b_top
    line = policy.slope * (og.ys[sel] - ctx.F_lo) + ctx.D
    scale = policy.slope * (float(ctx.pair.F(b_top)) - ctx.F_lo)
    rel = float(np.max(np.abs(og.values[sel] - line))) / scale
    out.append(_check("oracle_vs_value_line", rel <= ORACLE_REL,
                      f"sup rel error {rel:.2e} on the continuation region"))
    if workload.name.startswith("bm_"):
        worst = 0.0
        for b in policy.triggers:
            i = int(np.searchsorted(og.xs, b))
            two_cells = og.xs[min(i + 1, og.xs.size - 1)] - og.xs[max(i - 1, 0)]
            near = min((abs(t - b) for t in og.triggers), default=math.inf)
            worst = max(worst, near / two_cells)
        out.append(_check("oracle_triggers", worst <= 1.0,
                          f"worst trigger distance {worst:.2f} x two cells"))
    return out


# ---------------------------------------------------------------------------
# simulate: simulate_policy
# ---------------------------------------------------------------------------

def gate_simulate(workload, vrep, res):
    v0 = float(vrep.value(workload.sim["x0"]))
    z = (res.estimate - v0) / res.std_error
    if workload.mc_test == "two_sided":
        ok = abs(z) <= MC_Z
        bound = f"|z| <= {MC_Z}"
    else:
        ok = -MC_BIAS_Z <= z <= MC_Z
        bound = f"-{MC_BIAS_Z} <= z <= {MC_Z}"
    return [_check("mc_vs_value", ok,
                   f"estimate {res.estimate:.6g} +- {res.std_error:.3g} vs "
                   f"v(x0) = {v0:.6g}: z = {z:.2f} ({bound})")]
