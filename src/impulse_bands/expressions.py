"""Small arithmetic expression language for user-supplied model functions.

Supports +, -, *, /, ^ (right associative), unary minus, parentheses, the
functions exp/log/sin/cos/sqrt/abs, numeric literals and named variables.
Named parameters are substituted as constants at parse time, so a parsed
expression is closed over its declared variables only.  Evaluation works on
scalars and on numpy arrays and raises :class:`ExprEvalError` whenever an
input leaves the mathematical domain (division by zero, log of a
non-positive number, fractional power of a negative base, ...).  Scalar
arguments give a Python float, array arguments a float array of their
broadcast shape, also from a constant or an expression ignoring a variable.
The structure of an expression is read from its parse, never from samples:
``Expr.reads_all`` tells whether it reads every variable, and
``Expr.polynomial`` gives the exact coefficients of a one-variable
polynomial, from which the program picks its closed forms.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import ExprEvalError, ExprSyntaxError

_FLOAT = np.dtype(float)

_FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt", "abs")

_CONSTANTS = {"pi": math.pi, "e": math.e}


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

class _Node:
    def eval(self, env):
        raise NotImplementedError

    def to_text(self, parent_prec=0):
        raise NotImplementedError

    def poly(self, max_degree):
        """The subtree's coefficients (see ``Expr.polynomial``) when it is
        a polynomial of degree at most max_degree, otherwise None."""
        return None


class _Num(_Node):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)

    def eval(self, env):
        return self.value

    def poly(self, max_degree):
        return _poly_trim((self.value,), max_degree)

    def to_text(self, parent_prec=0):
        if self.value < 0:
            # negative literals only appear through parameter substitution
            return f"({self.value!r})"
        return repr(self.value)


class _Var(_Node):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def eval(self, env):
        return env[self.name]

    def poly(self, max_degree):
        return _poly_trim((0.0, 1.0), max_degree)

    def to_text(self, parent_prec=0):
        return self.name


class _Neg(_Node):
    __slots__ = ("arg",)
    PREC = 2

    def __init__(self, arg):
        self.arg = arg

    def eval(self, env):
        return -self.arg.eval(env)

    def poly(self, max_degree):
        p = self.arg.poly(max_degree)
        return None if p is None else _poly_trim([-c for c in p], max_degree)

    def to_text(self, parent_prec=0):
        inner = f"-{self.arg.to_text(self.PREC)}"
        return f"({inner})" if parent_prec > self.PREC else inner


def _any(mask):
    return bool(np.any(mask))


def _div(a, b):
    if _any(np.asarray(b) == 0):
        raise ExprEvalError("division by zero")
    return a / b


def _pow(a, b):
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    frac = bv != np.floor(bv)
    if _any((av < 0) & frac):
        raise ExprEvalError("fractional power of a negative base")
    if _any((av == 0) & (bv < 0)):
        raise ExprEvalError("zero raised to a negative power")
    return np.power(a, b)


def _poly_trim(coefs, max_degree):
    """coefs without trailing zeros, -0.0 read as 0.0; None when one is not
    finite or the degree is still above max_degree."""
    coefs = list(coefs)
    while coefs and coefs[-1] == 0.0:
        coefs.pop()
    if len(coefs) > max_degree + 1 or not all(map(math.isfinite, coefs)):
        return None
    return tuple(c + 0.0 for c in coefs)


def _poly_value(p):
    """The value of a polynomial of degree at most 0."""
    return p[0] if p else 0.0


def _poly_mul(a, b, max_degree):
    out = [0.0] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_trim(out, max_degree)


_BINOPS = {
    "+": (operator.add, 0),
    "-": (operator.sub, 0),
    "*": (operator.mul, 1),
    "/": (_div, 1),
    "^": (_pow, 3),
}


class _Bin(_Node):
    __slots__ = ("op", "left", "right", "fn")

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right
        self.fn = _BINOPS[op][0]
        if (op == "^" and isinstance(right, _Num) and right.value >= 0
                and right.value.is_integer()):
            # a constant non-negative integer exponent: neither domain
            # check of _pow can fire
            self.fn = np.power

    def eval(self, env):
        return self.fn(self.left.eval(env), self.right.eval(env))

    def poly(self, max_degree):
        a = self.left.poly(max_degree)
        b = self.right.poly(max_degree)
        if a is None or b is None:
            return None
        if self.op == "*":
            return _poly_mul(a, b, max_degree)
        if self.op in "+-":
            n = max(len(a), len(b))
            a, b = a + (0.0,) * (n - len(a)), b + (0.0,) * (n - len(b))
            return _poly_trim(map(self.fn, a, b), max_degree)
        # a constant, a polynomial over a constant c, or one raised to a
        # constant integer c that keeps the degree at most max_degree
        if len(b) > 1:
            return None
        c = _poly_value(b)
        if len(a) <= 1:
            return _poly_trim((float(self.fn(_poly_value(a), c)),),
                              max_degree)
        if self.op == "/":
            return None if c == 0 else _poly_trim([v / c for v in a],
                                                   max_degree)
        if not (c.is_integer() and 0 <= (len(a) - 1) * c <= max_degree):
            return None
        out = (1.0,)
        for _ in range(int(c)):
            out = _poly_mul(out, a, max_degree)
        return out

    def to_text(self, parent_prec=0):
        prec = _BINOPS[self.op][1]
        # right operand of - and / needs a strictly tighter sub-expression
        left = self.left.to_text(prec)
        right = self.right.to_text(prec if self.op in ("^",) else prec + 1)
        if self.op == "^":
            left = self.left.to_text(prec + 1)
            right = self.right.to_text(prec)
        text = f"{left} {self.op} {right}"
        return f"({text})" if parent_prec > prec else text


def _log(x):
    if _any(np.asarray(x) <= 0):
        raise ExprEvalError("log of a non-positive value")
    return np.log(x)


def _sqrt(x):
    if _any(np.asarray(x) < 0):
        raise ExprEvalError("sqrt of a negative value")
    return np.sqrt(x)


_CALLS = {
    "exp": np.exp,
    "log": _log,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": _sqrt,
    "abs": np.abs,
}


class _Call(_Node):
    __slots__ = ("fn", "arg")

    def __init__(self, fn, arg):
        self.fn = fn
        self.arg = arg

    def eval(self, env):
        return _CALLS[self.fn](self.arg.eval(env))

    def poly(self, max_degree):
        p = self.arg.poly(max_degree)
        if p is None or len(p) > 1:
            return None
        return _poly_trim((float(_CALLS[self.fn](_poly_value(p))),),
                          max_degree)

    def to_text(self, parent_prec=0):
        return f"{self.fn}({self.arg.to_text(0)})"


# ---------------------------------------------------------------------------
# Tokenizer / recursive-descent parser
# ---------------------------------------------------------------------------

class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.current = None
        self.advance()

    def advance(self):
        text, n = self.text, len(self.text)
        i = self.pos
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            self.current = ("end", "", i)
            self.pos = i
            return
        ch = text[i]
        if ch in "+-*/^()":
            self.current = (ch, ch, i)
            self.pos = i + 1
            return
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                float(text[i:j])
            except ValueError:
                raise ExprSyntaxError(f"bad number {text[i:j]!r}", i) from None
            self.current = ("number", text[i:j], i)
            self.pos = j
            return
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            self.current = ("ident", text[i:j], i)
            self.pos = j
            return
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)


class _Parser:
    def __init__(self, text, variables, params):
        self.toks = _Tokenizer(text)
        self.variables = tuple(variables)
        self.params = dict(params)
        self.read = set()       # the variables the text refers to

    def parse(self):
        node = self.expr()
        kind, text, pos = self.toks.current
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {text!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while self.toks.current[0] in ("+", "-"):
            op = self.toks.current[0]
            self.toks.advance()
            node = _Bin(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.toks.current[0] in ("*", "/"):
            op = self.toks.current[0]
            self.toks.advance()
            node = _Bin(op, node, self.unary())
        return node

    def unary(self):
        if self.toks.current[0] == "-":
            self.toks.advance()
            return _Neg(self.unary())
        if self.toks.current[0] == "+":
            self.toks.advance()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.toks.current[0] == "^":
            self.toks.advance()
            return _Bin("^", base, self.unary())
        return base

    def atom(self):
        kind, text, pos = self.toks.current
        if kind == "number":
            self.toks.advance()
            return _Num(float(text))
        if kind == "(":
            self.toks.advance()
            node = self.expr()
            if self.toks.current[0] != ")":
                raise ExprSyntaxError("expected ')'", self.toks.current[2])
            self.toks.advance()
            return node
        if kind == "ident":
            self.toks.advance()
            if text in _FUNCTIONS:
                if self.toks.current[0] != "(":
                    raise ExprSyntaxError(
                        f"function {text!r} requires parentheses", pos)
                self.toks.advance()
                arg = self.expr()
                if self.toks.current[0] != ")":
                    raise ExprSyntaxError("expected ')'", self.toks.current[2])
                self.toks.advance()
                return _Call(text, arg)
            if text in self.variables:
                self.read.add(text)
                return _Var(text)
            if text in self.params:
                return _Num(float(self.params[text]))
            if text in _CONSTANTS:
                return _Num(_CONSTANTS[text])
            raise ExprSyntaxError(f"unknown identifier {text!r}", pos)
        raise ExprSyntaxError(f"unexpected token {text!r}", pos)


# ---------------------------------------------------------------------------
# Public interface
# ---------------------------------------------------------------------------

class Expr:
    """A parsed expression over one or two real variables.

    Immutable after construction; evaluation is pure, so instances can be
    shared freely between threads and vectorized over numpy arrays.
    ``reads_all`` records at parse time whether the text refers to every
    variable, so a one-variable ``Expr`` without it is a constant.
    """

    __slots__ = ("_root", "variables", "source", "reads_all")

    def __init__(self, root, variables, source, reads_all):
        object.__setattr__(self, "_root", root)
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "reads_all", reads_all)

    def __setattr__(self, name, value):
        raise AttributeError("Expr is immutable")

    def __call__(self, *args):
        """A float when every argument is a scalar, otherwise a float array
        of the arguments' broadcast shape.  An argument that is neither a
        float nor a float64 array (an integer array, say) is read as a
        float array, so integer arithmetic never reaches the result.  An
        expression that reads every variable gets the shape from its own
        arithmetic; any other is broadcast to it here, into a new array."""
        if len(args) != len(self.variables):
            raise TypeError(
                f"expression over {self.variables} called with "
                f"{len(args)} argument(s)")
        # numpy keeps one float64 descriptor, so identity is the cheap test
        args = [a if isinstance(a, float) or (
            type(a) is np.ndarray and a.dtype is _FLOAT)
            else np.asarray(a, dtype=float) for a in args]
        out = self._root.eval(dict(zip(self.variables, args)))
        if not self.reads_all:
            full = np.empty(np.broadcast(*args).shape)
            full[...] = out
            out = full
        if isinstance(out, np.ndarray) and out.ndim:
            return out
        return float(out)

    def polynomial(self, max_degree):
        """The exact coefficients of a one-variable expression that is a
        polynomial of degree at most ``max_degree``, lowest degree first
        and without trailing zeros (so () for zero); None for any other.

        They are read from the parse, through +, -, *, unary minus,
        division by a constant and constant non-negative integer powers.  A
        subtree of degree 0 counts as its value, so ``sqrt(2)*(1 - x)`` is
        linear; every other subtree has to be such a polynomial itself.  A
        constant that cannot be evaluated or is not finite gives None."""
        if len(self.variables) != 1:
            raise TypeError(
                f"expression over {self.variables} is not in one variable")
        try:
            with np.errstate(all="ignore"):
                return self._root.poly(max_degree)
        except ExprEvalError:
            return None

    def __str__(self):
        return self._root.to_text(0)

    def __repr__(self):
        return f"Expr({str(self)!r}, vars={self.variables})"


def parse_expr(text, variables, params=None):
    """Parse ``text`` into an :class:`Expr` over the given variable names.

    ``params`` maps parameter names to numbers; they are substituted during
    parsing.  Unknown identifiers raise :class:`ExprSyntaxError` with the
    offending position.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExprSyntaxError("empty expression")
    parser = _Parser(text, variables, params or {})
    return Expr(parser.parse(), variables, text, parser.read == set(variables))
