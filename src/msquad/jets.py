"""Forward Taylor-mode differentiation of expression trees.

A :class:`TaylorJet` holds truncated Taylor coefficients
``c_j = f^(j)(x0) / j!`` for j = 0..6.  One propagation pass through an
expression tree yields every derivative order the bounds machinery needs
(the corrected rules use order 1, the leading-error estimate order 5 and
the bound families orders 2..6).
"""

from __future__ import annotations

import math

from .errors import EvaluationError
from .expressions import (
    BinOp,
    Call,
    Const,
    Expression,
    Neg,
    Num,
    Var,
    compile_expression,
    evaluate,
    parse,
)
from .integrand import Integrand

ORDER = 6
_N = ORDER + 1
_FACTORIALS = tuple(math.factorial(j) for j in range(_N))


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
        a, b = self.coeffs, other.coeffs
        return TaylorJet(
            tuple(
                math.fsum(a[i] * b[j - i] for i in range(j + 1))
                for j in range(_N)
            )
        )

    def __truediv__(self, other: "TaylorJet") -> "TaylorJet":
        a, b = self.coeffs, other.coeffs
        if b[0] == 0.0:
            raise ZeroDivisionError("jet division by a series with zero value")
        q = [a[0] / b[0]]
        for j in range(1, _N):
            acc = a[j] - math.fsum(b[i] * q[j - i] for i in range(1, j + 1))
            q.append(acc / b[0])
        return TaylorJet(q)


def _jet_exp(a: TaylorJet) -> TaylorJet:
    u = [math.exp(a.value)]
    for k in range(1, _N):
        u.append(math.fsum(j * a.coeffs[j] * u[k - j] for j in range(1, k + 1)) / k)
    return TaylorJet(u)


def _jet_log(a: TaylorJet) -> TaylorJet:
    u = [math.log(a.value)]
    for k in range(1, _N):
        acc = a.coeffs[k] - math.fsum(
            (j / k) * u[j] * a.coeffs[k - j] for j in range(1, k)
        )
        u.append(acc / a.value)
    return TaylorJet(u)


def _jet_sin_cos(a: TaylorJet) -> tuple[TaylorJet, TaylorJet]:
    s = [math.sin(a.value)]
    c = [math.cos(a.value)]
    for k in range(1, _N):
        s.append(math.fsum(j * a.coeffs[j] * c[k - j] for j in range(1, k + 1)) / k)
        c.append(-math.fsum(j * a.coeffs[j] * s[k - j] for j in range(1, k + 1)) / k)
    return TaylorJet(s), TaylorJet(c)


def _jet_sqrt(a: TaylorJet) -> TaylorJet:
    u = [math.sqrt(a.value)]
    for k in range(1, _N):
        acc = a.coeffs[k] - math.fsum(u[j] * u[k - j] for j in range(1, k))
        u.append(acc / (2.0 * u[0]))
    return TaylorJet(u)


def _jet_int_pow(base: TaylorJet, n: int) -> TaylorJet:
    if n == 0:
        return TaylorJet.constant(1.0)
    if n < 0:
        return TaylorJet.constant(1.0) / _jet_int_pow(base, -n)
    result = None
    square = base
    while n:
        if n & 1:
            result = square if result is None else result * square
        n >>= 1
        if n:
            square = square * square
    assert result is not None
    return result


def _propagate(node: Expression, x_jet: TaylorJet, x0: float) -> TaylorJet:
    if isinstance(node, Num):
        return TaylorJet.constant(node.value)
    if isinstance(node, Var):
        return x_jet
    if isinstance(node, Const):
        return TaylorJet.constant(evaluate(node, x0))
    if isinstance(node, Neg):
        return -_propagate(node.arg, x_jet, x0)
    if isinstance(node, BinOp):
        left = _propagate(node.left, x_jet, x0)
        right = _propagate(node.right, x_jet, x0)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            if right.value == 0.0:
                raise EvaluationError("division by zero", x0)
            return left / right
        return _jet_pow(left, right, x0)
    if isinstance(node, Call):
        arg = _propagate(node.arg, x_jet, x0)
        if node.fn == "exp":
            return _jet_exp(arg)
        if node.fn == "log":
            if arg.value <= 0.0:
                raise EvaluationError(f"log of non-positive value {arg.value!r}", x0)
            return _jet_log(arg)
        if node.fn == "sin":
            return _jet_sin_cos(arg)[0]
        if node.fn == "cos":
            return _jet_sin_cos(arg)[1]
        if node.fn == "tan":
            s, c = _jet_sin_cos(arg)
            if c.value == 0.0:
                raise EvaluationError("tan at a pole", x0)
            return s / c
        if node.fn == "sqrt":
            if arg.value <= 0.0:
                # the derivative is singular at 0 even though the value exists
                raise EvaluationError(
                    f"sqrt not differentiable at non-positive value {arg.value!r}", x0
                )
            return _jet_sqrt(arg)
    raise TypeError(f"not an expression node: {node!r}")


def _jet_pow(base: TaylorJet, expo: TaylorJet, x0: float) -> TaylorJet:
    if expo.is_constant() and expo.value == int(expo.value) and abs(expo.value) <= 2**31:
        n = int(expo.value)
        if base.value == 0.0 and n < 0:
            raise EvaluationError("zero raised to a negative power", x0)
        return _jet_int_pow(base, n)
    if base.value <= 0.0:
        raise EvaluationError(
            f"non-integer power of a non-positive base {base.value!r}", x0
        )
    return _jet_exp(expo * _jet_log(base))


def derivatives(expr: Expression, x0: float, max_order: int = ORDER) -> TaylorJet:
    """Propagate a full order-6 jet of ``expr`` through the tree at ``x0``.

    ``max_order`` is validated against the carried order; the jet always
    holds all orders up to 6.
    """
    if not 1 <= max_order <= ORDER:
        raise ValueError(f"max_order must be in 1..{ORDER}, got {max_order}")
    try:
        return _propagate(expr, TaylorJet.variable(x0), x0)
    except OverflowError:
        raise EvaluationError("overflow during derivative propagation", x0) from None
    except ZeroDivisionError as exc:
        raise EvaluationError(str(exc), x0) from None


def expression_integrand(
    text: str, df_text: str | None = None, name: str | None = None
) -> Integrand:
    """Build an :class:`Integrand` from expression text.

    Point values come from the tree compiled once by
    :func:`~msquad.expressions.compile_expression`, derivatives of all
    orders from jet propagation; ``df_text``, when given, is compiled too
    and overrides order 1 only (orders 2..6 still come from the jets of
    ``text``).  ``text`` is parsed before ``df_text``.
    """
    expr = parse(text)
    df = compile_expression(parse(df_text)) if df_text is not None else None

    def provider(order: int, x: float) -> float:
        if order == 1 and df is not None:
            return df(x)
        return derivatives(expr, x).derivative(order)

    return Integrand(compile_expression(expr), provider, max_order=ORDER, name=name or text)
