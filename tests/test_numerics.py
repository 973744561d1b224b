"""bracket_roots: lockstep bracketed root-finding over lanes."""

import numpy as np

from impulse_bands.numerics import bracket_roots


def _recorded(g, lo, hi, ftol, xtol):
    """bracket_roots on f(x, idx) = [g(x, idx), x], recording each call."""
    calls = []

    def f(x, idx):
        calls.append((x.copy(), idx.copy()))
        return np.stack([g(x, idx), x])

    x, rows = bracket_roots(f, lo, hi, ftol, xtol)
    return x, rows, calls


def _brackets(seed, n):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-10.0, 10.0, n)
    return rng, lo, lo + rng.uniform(0.1, 5.0, n)


def test_each_lane_meets_its_residual_tolerance():
    rng, lo, hi = _brackets(1, 200)
    root = lo + rng.uniform(0.05, 0.95, lo.size) * (hi - lo)
    scale = rng.uniform(0.01, 100.0, lo.size)
    ftol = 10.0 ** rng.uniform(-12.0, -6.0, lo.size)

    def g(x, idx):
        # smooth, monotone and of varied curvature: a cubic through the root
        d = x - root[idx]
        return scale[idx] * (d + 0.5 * d ** 3)

    x, rows, _ = _recorded(g, lo, hi, ftol, 0.0)
    assert np.all((lo <= x) & (x <= hi))
    assert np.all(np.abs(rows[0]) <= ftol)
    # the carried rows are f's rows at the returned point
    assert rows[0].tobytes() == g(x, np.arange(lo.size)).tobytes()
    assert rows[1].tobytes() == x.tobytes()


def test_one_vector_call_per_iteration():
    rng, lo, hi = _brackets(2, 50)
    root = lo + rng.uniform(0.1, 0.9, lo.size) * (hi - lo)

    def g(x, idx):
        return np.tanh(x - root[idx])

    _, rows, calls = _recorded(g, lo, hi, 1e-12, 0.0)
    assert np.all(np.abs(rows[0]) <= 1e-12)
    # the first call prices both ends of every bracket
    x0, idx0 = calls[0]
    assert x0.tobytes() == np.concatenate([lo, hi]).tobytes()
    assert idx0.tobytes() == np.tile(np.arange(lo.size), 2).tobytes()
    # then one call per iteration, each lane at most once, and a lane once
    # done is never priced again
    done = set()
    for x, idx in calls[1:]:
        assert np.unique(idx).size == idx.size
        assert not done & set(idx.tolist())
        done |= set(range(lo.size)) - set(idx.tolist())
    # superlinear, not bisection: 1e-12 from a bracket of up to 5 by
    # bisection alone would take about 42 calls
    assert len(calls) <= 15


def test_jump_converges_to_the_jump():
    # d beta*/da at a kinked maximum of beta* = min(b1, b2), b1 rising and
    # b2 falling: the derivative jumps from b1' > 0 to b2' < 0 where they
    # cross, and the root is the kink
    a_kink = 0.7318

    def b1(a):
        return 1.0 + 0.4 * (a - a_kink) - (a - a_kink) ** 2

    def b2(a):
        return 1.0 - 0.9 * (a - a_kink) - 0.5 * (a - a_kink) ** 2

    def g(a, idx):
        return np.where(b1(a) <= b2(a), 0.4 - 2.0 * (a - a_kink),
                        -0.9 - (a - a_kink))

    lo, hi = np.array([0.5, 0.7]), np.array([1.0, 0.74])
    xtol = np.array([1e-7, 1e-10])
    x, rows, calls = _recorded(g, lo, hi, 1e-12, xtol)
    assert np.all(np.abs(x - a_kink) <= xtol)
    # |f| stays at the jump's size, so the bracket width ends the lane; the
    # bisection fallback keeps that to about two steps per halving
    assert np.all(np.abs(rows[0]) > 0.3)
    assert len(calls) <= 1 + 2 * 40


def test_upward_jump_is_not_a_root():
    # + at lo and - at hi: every step keeps that, so the lane ends where f
    # falls through zero (a maximum of its integral), never at the upward
    # jump of a kinked minimum in between
    def g(a, idx):
        return np.where(a < 0.6, 0.3 - a, 0.9 - a)

    x, rows, _ = _recorded(g, np.array([0.0]), np.array([1.0]), 1e-13, 0.0)
    assert min(abs(x[0] - 0.3), abs(x[0] - 0.9)) <= 1e-13
    assert abs(rows[0][0]) <= 1e-13


def test_lane_without_sign_change_comes_back_nan():
    _, lo, hi = _brackets(3, 6)
    root = 0.5 * (lo + hi)
    bad = np.array([1, 4])

    def g(x, idx):
        d = x - root[idx]
        # lane 1 has no root, lane 4 two, so neither changes sign
        return np.where(idx == 1, 1.0 + d * d,
                        np.where(idx == 4, d * d - 0.01, d))

    x, rows, calls = _recorded(g, lo, hi, 1e-12, 0.0)
    assert np.all(np.isnan(x[bad])) and np.all(np.isnan(rows[:, bad]))
    good = np.setdiff1d(np.arange(lo.size), bad)
    np.testing.assert_allclose(x[good], root[good], rtol=0, atol=1e-11)
    # neither is priced after the first call
    assert all(not np.isin(bad, idx).any() for _, idx in calls[1:])


def test_lane_turning_nan_stops_as_nan():
    _, lo, hi = _brackets(4, 4)
    root = 0.5 * (lo + hi)

    def g(x, idx):
        ends = (x == lo[idx]) | (x == hi[idx])
        return np.where((idx == 2) & ~ends, np.nan, x - root[idx])

    x, rows, calls = _recorded(g, lo, hi, 1e-12, 0.0)
    assert np.isnan(x[2]) and np.all(np.isnan(rows[:, 2]))
    assert sum(2 in idx for _, idx in calls[1:]) == 1
    assert np.all(np.isfinite(np.delete(x, 2)))


def test_root_on_a_bracket_end_is_not_iterated():
    lo, hi = np.array([0.0, 1.0]), np.array([2.0, 3.0])
    x, rows, calls = _recorded(lambda x, idx: x * (x - 2.0), lo, hi,
                               0.0, 0.0)
    assert x[0] == 0.0 or x[0] == 2.0
    assert rows[0][0] == 0.0
    assert all(0 not in idx for _, idx in calls[1:])
    assert x[1] == 2.0
