"""golden_max_lanes against the masked loop it replaced: same result bits,
same evaluation sequence."""

import numpy as np

from impulse_bands.numerics import _INVPHI, _INVPHI2, golden_max_lanes


def _reference_golden_max_lanes(f, lo, hi, xtol, max_iter=160):
    """The boolean-mask golden loop, kept as the reference."""
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    n = lo.size
    all_idx = np.arange(n)
    h = hi - lo
    x1 = lo + _INVPHI2 * h
    x2 = lo + _INVPHI * h
    f1 = f(x1, all_idx)
    f2 = f(x2, all_idx)
    xtol = np.broadcast_to(np.asarray(xtol, dtype=float), lo.shape)
    for _ in range(max_iter):
        active = h > xtol
        if not np.any(active):
            break
        left = active & (f1 >= f2)
        right = active & ~left
        if np.any(left):
            hi[left] = x2[left]
            x2[left] = x1[left]
            f2[left] = f1[left]
            h[left] = hi[left] - lo[left]
            x1[left] = lo[left] + _INVPHI2 * h[left]
        if np.any(right):
            lo[right] = x1[right]
            x1[right] = x2[right]
            f1[right] = f2[right]
            h[right] = hi[right] - lo[right]
            x2[right] = lo[right] + _INVPHI * h[right]
        query = np.concatenate([x1[left], x2[right]])
        idx = np.concatenate([all_idx[left], all_idx[right]])
        if query.size:
            vals = f(query, idx)
            f1[left] = vals[: int(np.sum(left))]
            f2[right] = vals[int(np.sum(left)):]
    xs = np.where(f1 >= f2, x1, x2)
    fs = np.maximum(f1, f2)
    return xs, fs


def _recorded(search, g, lo, hi, xtol):
    """search(f, lo, hi, xtol) with f = g recording every (x, idx) call."""
    calls = []

    def f(x, idx):
        calls.append((x.copy(), idx.copy()))
        return g(x, idx)

    xs, fs = search(f, lo, hi, xtol)
    return xs, fs, calls


def _assert_same(g, lo, hi, xtol):
    got = _recorded(golden_max_lanes, g, lo, hi, xtol)
    ref = _recorded(_reference_golden_max_lanes, g, lo, hi, xtol)
    assert got[0].tobytes() == ref[0].tobytes()
    assert got[1].tobytes() == ref[1].tobytes()
    assert len(got[2]) == len(ref[2])
    for (x, idx), (x_ref, idx_ref) in zip(got[2], ref[2]):
        assert x.tobytes() == x_ref.tobytes()
        assert idx.tobytes() == idx_ref.tobytes()
    return got


def _brackets(seed, n):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-10.0, 10.0, n)
    return lo, lo + rng.uniform(0.1, 5.0, n)


def test_exact_ties():
    lo, hi = _brackets(1, 7)
    _assert_same(lambda x, idx: np.zeros_like(x), lo, hi, 1e-9)


def test_nan_lane():
    lo, hi = _brackets(2, 5)

    def g(x, idx):
        return np.where(idx == 3, np.nan, -(x - 0.5 * (lo + hi)[idx]) ** 2)

    xs, fs, _ = _assert_same(g, lo, hi, 1e-8)
    assert np.isnan(fs[3])
    assert np.all(np.isfinite(np.delete(fs, 3)))


def test_lane_narrower_than_its_tolerance():
    lo, hi = _brackets(3, 4)
    hi[2] = lo[2] + 1e-12
    _, _, calls = _assert_same(lambda x, idx: np.sin(x), lo, hi, 1e-9)
    # lane 2 is evaluated at its two initial probes only
    assert all(2 not in idx for _, idx in calls[2:])


def test_per_lane_tolerances():
    lo, hi = _brackets(4, 6)
    xtol = np.array([1e-3, 1e-6, 1e-9, 1e-1, 1e-12, 1e-4])
    _assert_same(lambda x, idx: np.cos(x + idx), lo, hi, xtol)


def test_random_concave_quadratics():
    rng = np.random.default_rng(5)
    n = 200
    lo, hi = _brackets(6, n)
    peak = lo + rng.uniform(0.0, 1.0, n) * (hi - lo)
    curv = rng.uniform(0.01, 100.0, n)
    xtol = 10.0 ** rng.uniform(-10.0, -4.0, n)

    def g(x, idx):
        return -curv[idx] * (x - peak[idx]) ** 2

    xs, fs, _ = _assert_same(g, lo, hi, xtol)
    assert np.all(np.abs(xs - peak) <= xtol)
    assert np.array_equal(fs, g(xs, np.arange(n)))
