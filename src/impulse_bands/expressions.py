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
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import ExprEvalError, ExprSyntaxError

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


class _Num(_Node):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)

    def eval(self, env):
        return self.value

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

    def to_text(self, parent_prec=0):
        return self.name


class _Neg(_Node):
    __slots__ = ("arg",)
    PREC = 2

    def __init__(self, arg):
        self.arg = arg

    def eval(self, env):
        return -self.arg.eval(env)

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
        of the arguments' broadcast shape.  An expression that reads every
        variable gets that shape from its own arithmetic; any other is
        broadcast to it here, into a new array."""
        if len(args) != len(self.variables):
            raise TypeError(
                f"expression over {self.variables} called with "
                f"{len(args)} argument(s)")
        out = self._root.eval(dict(zip(self.variables, args)))
        if not self.reads_all:
            full = np.empty(np.broadcast(*args).shape)
            full[...] = out
            out = full
        if isinstance(out, np.ndarray) and out.ndim:
            return out
        return float(out)

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
