import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impulse_bands import ExprEvalError, ExprSyntaxError, parse_expr


def test_polynomial():
    e = parse_expr("x^2", ("x",))
    assert e(3.0) == 9.0


def test_example_cost_at_published_band():
    e = parse_expr("-c - lambda*(x - y)", ("x", "y"),
                   params={"c": 150, "lambda": 50})
    assert e(12.261, 5.077) == pytest.approx(-509.2, abs=1e-9)


def test_trig():
    e = parse_expr("sin(x) - sin(y)", ("x", "y"))
    assert e(math.pi / 2, 0.0) == pytest.approx(1.0)


def test_precedence_and_unary():
    assert parse_expr("2 + 3 * 4", ("x",))(0.0) == 14.0
    assert parse_expr("-2^2", ("x",))(0.0) == -4.0
    assert parse_expr("2^3^2", ("x",))(0.0) == 512.0  # right associative
    assert parse_expr("(2 + 3) * 4", ("x",))(0.0) == 20.0


def test_vectorized_eval():
    e = parse_expr("exp(-x) + 1", ("x",))
    xs = np.linspace(-1, 1, 7)
    np.testing.assert_allclose(e(xs), np.exp(-xs) + 1)


def test_unknown_identifier_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x + bogus", ("x",))
    assert "bogus" in str(err.value)


def test_syntax_error_position():
    with pytest.raises(ExprSyntaxError):
        parse_expr("x + ", ("x",))
    with pytest.raises(ExprSyntaxError):
        parse_expr("(x", ("x",))
    with pytest.raises(ExprSyntaxError):
        parse_expr("", ("x",))


def test_domain_errors():
    with pytest.raises(ExprEvalError):
        parse_expr("1/x", ("x",))(0.0)
    with pytest.raises(ExprEvalError):
        parse_expr("log(x)", ("x",))(-1.0)
    with pytest.raises(ExprEvalError):
        parse_expr("sqrt(x)", ("x",))(-2.0)
    with pytest.raises(ExprEvalError):
        parse_expr("x^0.5", ("x",))(-2.0)
    with pytest.raises(ExprEvalError):
        parse_expr("x^(-1)", ("x",))(0.0)


def test_integer_power_skips_domain_checks_bitwise():
    from impulse_bands.expressions import _pow
    xs = np.random.default_rng(4).standard_normal(10_000)
    xs[::7] = 0.0
    for n in (0.0, 1.0, 2.0, 3.0, 7.0):
        e = parse_expr(f"x^{n!r}", ("x",))
        assert e._root.fn is np.power
        checked = np.power(xs, np.asarray(n, dtype=float))
        assert e(xs).tobytes() == checked.tobytes()
        assert e(-1.5) == float(np.power(-1.5, np.asarray(n, dtype=float)))
        assert type(e(-1.5)) is float
        assert str(e) == f"x ^ {n!r}"
    for text in ("x^0.5", "x^(-1)", "x^-2", "x^1.5", "x^x"):
        assert parse_expr(text, ("x",))._root.fn is _pow
    with pytest.raises(ExprEvalError):
        parse_expr("x^0.5", ("x",))(np.array([1.0, -2.0]))
    with pytest.raises(ExprEvalError):
        parse_expr("x^(-1)", ("x",))(np.array([1.0, 0.0]))
    with pytest.raises(ExprEvalError):
        parse_expr("0^-1", ("x",))(1.0)


# (text, params, the same arithmetic in numpy): f, K, drift and vol of the
# shipped and benchmark configs, then mixes of /, ^, exp and abs
DIRECT_CASES = [
    ("-x^2", {}, lambda x, y: -np.power(x, 2.0)),
    ("-c - lambda*(x - y)", {"c": 150, "lambda": 50},
     lambda x, y: -150.0 - 50.0 * (x - y)),
    ("-c*(sin(x) - sin(y)) - delta", {"c": 10, "delta": 0.35},
     lambda x, y: -10.0 * (np.sin(x) - np.sin(y)) - 0.35),
    ("delta*(m - x)", {"delta": 0.1, "m": 0.9}, lambda x, y: 0.1 * (0.9 - x)),
    ("sigma*(1 + 0.2*x)", {"sigma": 0.35},
     lambda x, y: 0.35 * (1.0 + 0.2 * x)),
    ("k*(x - y)^gamma - Kfix", {"k": 0.7, "gamma": 0.75, "Kfix": 0.1},
     lambda x, y: 0.7 * np.power(x - y, 0.75) - 0.1),
    ("-0.02*x", {}, lambda x, y: -0.02 * x),
    ("exp(-abs(x - y)) / (1 + x^2)", {},
     lambda x, y: np.exp(-np.abs(x - y)) / (1.0 + np.power(x, 2.0))),
    ("abs(x)^1.5 - 2/(3 + y*y) + x*y - y", {},
     lambda x, y: np.power(np.abs(x), 1.5) - 2.0 / (3.0 + y * y) + x * y - y),
]


@pytest.mark.parametrize("text, params, direct", DIRECT_CASES,
                         ids=[case[0] for case in DIRECT_CASES])
def test_eval_bitwise_equals_direct_numpy(text, params, direct):
    e = parse_expr(text, ("x", "y"), params)
    rng = np.random.default_rng(11)
    ys = rng.uniform(-2.0, 2.0, 500)
    xs = ys + rng.uniform(0.0, 3.0, 500)     # x >= y for the ^gamma cost
    assert e(xs, ys).tobytes() == direct(xs, ys).tobytes()
    for x, y in zip(xs[:50], ys[:50]):
        ref = float(direct(np.float64(x), np.float64(y)))
        for args in ((float(x), float(y)), (x, y)):
            out = e(*args)
            assert type(out) is float
            assert np.float64(out).tobytes() == np.float64(ref).tobytes()


def test_param_substitution_closes_expression():
    e = parse_expr("k*(x - y)^gamma - Kfix", ("x", "y"),
                   params={"k": 0.7, "gamma": 0.75, "Kfix": 0.1})
    assert e.variables == ("x", "y")
    assert e(1.0, 0.5) == pytest.approx(0.7 * 0.5 ** 0.75 - 0.1)


def test_agreement_with_hand_built(rng=np.random.default_rng(3)):
    e = parse_expr("-c - lambda*(x - y) + (x^2 - y^2)/alpha", ("x", "y"),
                   params={"c": 150, "lambda": 50, "alpha": 0.2})
    for _ in range(100):
        x = rng.uniform(-10, 10)
        y = x - rng.uniform(0, 5)
        direct = -150 - 50 * (x - y) + (x * x - y * y) / 0.2
        assert e(x, y) == pytest.approx(direct, rel=1e-12)


# hypothesis: random expression trees survive a print/parse round trip

_leaf = st.one_of(
    st.floats(min_value=0.1, max_value=9.0).map(lambda v: f"{v!r}"),
    st.just("x"), st.just("y"))


def _tree(depth):
    if depth == 0:
        return _leaf
    sub = _tree(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(st.sampled_from("+-*/"), sub, sub).map(
            lambda t: f"({t[1]} {t[0]} {t[2]})"),
        sub.map(lambda s: f"-({s})"),
        sub.map(lambda s: f"sin({s})"),
        sub.map(lambda s: f"cos({s})"),
        sub.map(lambda s: f"exp(-abs({s}))"),
    )


@settings(max_examples=60, deadline=None)
@given(text=_tree(3), x=st.floats(-3, 3), y=st.floats(-3, 3))
def test_roundtrip_print_parse(text, x, y):
    e = parse_expr(text, ("x", "y"))
    reparsed = parse_expr(str(e), ("x", "y"))
    try:
        expected = e(x, y)
    except ExprEvalError:
        return
    assert reparsed(x, y) == pytest.approx(expected, rel=1e-12, abs=1e-12)
