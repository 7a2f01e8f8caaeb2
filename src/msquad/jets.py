"""Forward Taylor-mode differentiation of expression trees.

A :class:`TaylorJet` holds truncated Taylor coefficients
``c_j = f^(j)(x0) / j!`` for j = 0..6.  One propagation pass through an
expression tree yields every derivative order the bounds machinery needs
(the corrected rules use order 1, the leading-error estimate order 5 and
the bound families orders 2..6).  The pass and the recurrence of each
operation are written once, against the scalar arithmetic of
:mod:`msquad.expressions`: on ``Binary64`` they are :func:`derivatives`,
the reference, and on ``Tracer`` they write the straight-line function
that :func:`compile_jet` returns.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import EvaluationError
from .expressions import (
    _DIVISION_BY_ZERO,
    _INFIX,
    _LOG_DOMAIN,
    CONSTANTS,
    FUNCTIONS,
    BinOp,
    Binary64,
    Call,
    Const,
    Expression,
    Neg,
    Num,
    Tracer,
    Var,
    _exponent,
    compile_expression,
    compile_pair_terms,
    parse,
)
from .integrand import Integrand

ORDER = 6
_N = ORDER + 1
_FACTORIALS = tuple(math.factorial(j) for j in range(_N))
_ZEROS = (0.0,) * ORDER
_OVERFLOW = "overflow during derivative propagation"
_ZERO_SERIES = "jet division by a series with zero value"
_FLOATS = Binary64(None)  # for TaylorJet arithmetic, which checks no domain


class TaylorJet:
    """Truncated Taylor series; all arithmetic is exact truncation."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(float(c) for c in coeffs)
        if len(cs) != _N:
            raise ValueError(f"jet needs exactly {_N} coefficients, got {len(cs)}")
        self.coeffs = cs

    @classmethod
    def constant(cls, value: float) -> "TaylorJet":
        return cls((float(value),) + (0.0,) * ORDER)

    @classmethod
    def variable(cls, x0: float) -> "TaylorJet":
        return cls((float(x0), 1.0) + (0.0,) * (ORDER - 1))

    @property
    def value(self) -> float:
        return self.coeffs[0]

    def derivative(self, order: int) -> float:
        """``f^(order)(x0)``, i.e. the coefficient rescaled by order!."""
        if not 0 <= order <= ORDER:
            raise ValueError(f"jet carries orders 0..{ORDER}, got {order}")
        return self.coeffs[order] * _FACTORIALS[order]

    def is_constant(self) -> bool:
        return all(c == 0.0 for c in self.coeffs[1:])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaylorJet({self.coeffs!r})"

    def __add__(self, other: "TaylorJet") -> "TaylorJet":
        a, b = self.coeffs, other.coeffs
        return TaylorJet(tuple(a[j] + b[j] for j in range(_N)))

    def __sub__(self, other: "TaylorJet") -> "TaylorJet":
        a, b = self.coeffs, other.coeffs
        return TaylorJet(tuple(a[j] - b[j] for j in range(_N)))

    def __neg__(self) -> "TaylorJet":
        return TaylorJet(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "TaylorJet") -> "TaylorJet":
        return TaylorJet(_mul(_FLOATS, self.coeffs, other.coeffs))

    def __truediv__(self, other: "TaylorJet") -> "TaylorJet":
        if other.coeffs[0] == 0.0:
            raise ZeroDivisionError(_ZERO_SERIES)
        return TaylorJet(_div(_FLOATS, self.coeffs, other.coeffs))


# -- the recurrences --------------------------------------------------------
#
# A jet is a tuple of seven values of arithmetic ``A``, each coefficient one
# ``let``.  Each sum of products is one ``fsum``: traced, the products stay
# inside the call, where binding each to a local would only add stores.
# Every coefficient is computed, though a caller may need one order, or sin
# only the sine: an ``fsum`` may raise (on inf - inf, or on overflow), so
# which inputs fail depends on all of them.  The sign of a NaN is not kept:
# CPython 3.11 takes it for a product of two NaNs from either operand,
# depending on whether it has specialised that multiplication yet.


def _mul(A, a, b):
    return tuple(
        A.let(A.fsum([A.mul(a[i], b[j - i]) for i in range(j + 1)])) for j in range(_N)
    )


def _div(A, a, b):
    """The quotient, once the caller has checked ``b[0]``."""
    q = [A.let(A.div(a[0], b[0]))]
    for j in range(1, _N):
        acc = A.sub(a[j], A.fsum([A.mul(b[i], q[j - i]) for i in range(1, j + 1)]))
        q.append(A.let(A.div(acc, b[0])))
    return tuple(q)


def _scaled(A, a):
    """``j * a[j]``, the left factor of every exp and sin/cos product."""
    return [None] + [A.let(A.mul(j, a[j])) for j in range(1, _N)]


def _exp(A, a):
    u = [A.let(A.exp(a[0]))]
    d = _scaled(A, a)
    for k in range(1, _N):
        u.append(A.let(A.div(A.fsum([A.mul(d[j], u[k - j]) for j in range(1, k + 1)]), k)))
    return tuple(u)


def _log(A, a):
    """The logarithm, once the caller has checked ``a[0] > 0``."""
    u = [A.let(A.log(a[0]))]
    for k in range(1, _N):
        terms = [A.mul(A.mul(j / k, u[j]), a[k - j]) for j in range(1, k)]
        u.append(A.let(A.div(A.sub(a[k], A.fsum(terms)), a[0])))
    return tuple(u)


def _sin_cos(A, a):
    s = [A.let(A.sin(a[0]))]
    c = [A.let(A.cos(a[0]))]
    d = _scaled(A, a)
    for k in range(1, _N):
        s.append(A.let(A.div(A.fsum([A.mul(d[j], c[k - j]) for j in range(1, k + 1)]), k)))
        c.append(A.let(A.div(A.neg(A.fsum([A.mul(d[j], s[k - j]) for j in range(1, k + 1)])), k)))
    return tuple(s), tuple(c)


def _sqrt(A, a):
    """The square root, once the caller has checked ``a[0] > 0``."""
    u = [A.let(A.sqrt(a[0]))]
    twice = A.let(A.mul(2.0, u[0]))
    for k in range(1, _N):
        terms = [A.mul(u[j], u[k - j]) for j in range(1, k)]
        u.append(A.let(A.div(A.sub(a[k], A.fsum(terms)), twice)))
    return tuple(u)


def _int_pow(A, base, n: int):
    """Square and multiply; on the tracer the loop unrolls itself."""
    if n == 0:
        return (1.0,) + _ZEROS
    if n < 0:
        p = _int_pow(A, base, -n)
        A.check(p[0], "==", _ZERO_SERIES)
        return _div(A, (1.0,) + _ZEROS, p)
    result, square = None, base
    while n:
        if n & 1:
            result = square if result is None else _mul(A, result, square)
        n >>= 1
        if n:
            square = _mul(A, square, square)
    return result


def _pow(A, base, expo):
    e = [A.known(c) for c in expo]
    if None in e:
        return A.defer(_pow, base, expo, size=_N)
    n = _exponent(A, base[0], e[0] if all(c == 0.0 for c in e[1:]) else None)
    if n is None:
        return _exp(A, _mul(A, expo, _log(A, base)))
    return _int_pow(A, base, n)


def _jet(A, node: Expression, x):
    """The jet of ``node`` in arithmetic ``A``, where ``x`` is the variable's."""
    if isinstance(node, Num):
        return (A.const(float(node.value)),) + _ZEROS
    if isinstance(node, Var):
        return x
    if isinstance(node, Const):
        return (A.const(CONSTANTS[node.name]),) + _ZEROS
    if isinstance(node, Neg):
        return tuple(A.let(A.neg(c)) for c in _jet(A, node.arg, x))
    if isinstance(node, BinOp):
        a, b = _jet(A, node.left, x), _jet(A, node.right, x)
        if node.op in "+-":
            op = getattr(A, _INFIX[node.op])
            return tuple(A.let(op(p, q)) for p, q in zip(a, b))
        if node.op == "*":
            return _mul(A, a, b)
        if node.op == "/":
            A.check(b[0], "==", _DIVISION_BY_ZERO)
            return _div(A, a, b)
        return _pow(A, a, b)
    if isinstance(node, Call) and node.fn in FUNCTIONS:
        a = _jet(A, node.arg, x)
        if node.fn == "exp":
            return _exp(A, a)
        if node.fn == "log":
            A.check(a[0], "<=", _LOG_DOMAIN)
            return _log(A, a)
        if node.fn == "sqrt":
            # the derivative is singular at 0 even though the value exists
            A.check(a[0], "<=", "sqrt not differentiable at non-positive value {!r}")
            return _sqrt(A, a)
        s, c = _sin_cos(A, a)
        if node.fn == "sin":
            return s
        if node.fn == "cos":
            return c
        A.check(c[0], "==", "tan at a pole")
        return _div(A, s, c)
    raise TypeError(f"not an expression node: {node!r}")


def derivatives(expr: Expression, x0: float) -> TaylorJet:
    """Propagate a full order-6 jet of ``expr`` through the tree at ``x0``."""
    try:
        return TaylorJet(_jet(Binary64(x0), expr, TaylorJet.variable(x0).coeffs))
    except OverflowError:
        raise EvaluationError(_OVERFLOW, x0) from None


def compile_jet(expr: Expression) -> Callable[[float], tuple[float, ...]]:
    """Compile the tree once into a function of ``x`` that returns
    ``derivatives(expr, x).coeffs`` and raises what :func:`derivatives`
    does.  Compiling never raises: an error belongs to the point."""
    tracer = Tracer()
    x = (tracer.let("float(x)"), 1.0) + _ZEROS[1:]
    return tracer.function(_jet(tracer, expr, x), _OVERFLOW, "<msquad jet>")


def expression_integrand(
    text: str, df_text: str | None = None, name: str | None = None
) -> Integrand:
    """Build an :class:`Integrand` from expression text.

    Point values come from the tree compiled once by
    :func:`~msquad.expressions.compile_expression`, derivatives of all
    orders from its jet compiled by :func:`compile_jet` on the first
    derivative asked for (rules that take none never pay for it), and the
    pair loop of the composite rules by
    :func:`~msquad.expressions.compile_pair_terms` on the first of them.
    ``df_text``, when given, is compiled too and overrides order 1 only
    (orders 2..6 still come from the jets of ``text``).  ``text`` is
    parsed before ``df_text``.
    """
    expr = parse(text)
    df = compile_expression(parse(df_text)) if df_text is not None else None
    jet = None

    def provider(order: int, x: float) -> float:
        nonlocal jet
        if order == 1 and df is not None:
            return df(x)
        if jet is None:
            jet = compile_jet(expr)
        return jet(x)[order] * _FACTORIALS[order]

    f = Integrand(compile_expression(expr), provider, max_order=ORDER, name=name or text)

    def pair_terms(*args):  # compiles on the first call, then is replaced
        f._pair_terms = compile_pair_terms(expr)
        return f._pair_terms(*args)

    f._pair_terms = pair_terms
    return f
