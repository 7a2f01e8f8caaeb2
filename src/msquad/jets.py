"""Forward Taylor-mode differentiation of expression trees.

A :class:`TaylorJet` holds truncated Taylor coefficients
``c_j = f^(j)(x0) / j!`` for j = 0..6.  One propagation pass through an
expression tree yields every derivative order the bounds machinery needs
(the corrected rules use order 1, the leading-error estimate order 5 and
the bound families orders 2..6).  :func:`compile_jet` turns that pass
into straight-line code once per expression; :func:`derivatives` and
:class:`TaylorJet` stay as the reference it matches bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import EvaluationError
from .expressions import (
    CONSTANTS,
    FUNCTIONS,
    BinOp,
    Call,
    Const,
    Expression,
    Neg,
    Num,
    Var,
    _constant,
    _is_integer_exponent,
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


def derivatives(expr: Expression, x0: float) -> TaylorJet:
    """Propagate a full order-6 jet of ``expr`` through the tree at ``x0``."""
    try:
        return _propagate(expr, TaylorJet.variable(x0), x0)
    except OverflowError:
        raise EvaluationError("overflow during derivative propagation", x0) from None
    except ZeroDivisionError as exc:
        raise EvaluationError(str(exc), x0) from None


# -- compilation -------------------------------------------------------------
#
# As ``expressions.compile_expression`` does for point values, the tree is
# emitted once as the source of one straight-line function of ``x``, here
# returning the seven jet coefficients.  Every coefficient is one local and
# every recurrence above is unrolled: each ``math.fsum`` becomes a call on a
# tuple of the same products in the same order, and nodes, domain checks
# and coefficients come in the order ``_propagate`` computes them, the
# coefficients it computes but does not use included (their ``fsum`` may
# raise).  So the function returns the coefficients of ``derivatives`` bit
# for bit and raises what it raises, with the same handlers around the body.
# A positive literal integer exponent within 2**31 is unrolled by square
# and multiply; any other exponent (negated or zero literals included) goes
# through ``_jet_pow`` on ``TaylorJet`` objects, which gives the same bits.
# Constants enter as names bound to their exact values.

_ZEROS = ("0.0",) * ORDER


def _fsum(terms: list[str]) -> str:
    # math.fsum of nothing is 0.0; of one item it is not always the item
    return f"fsum(({', '.join(terms)},))" if terms else "0.0"


def _scaled_sum(d, u, k: int) -> str:
    """The fsum of ``j * a[j] * u[k - j]`` over j = 1..k, given ``d[j] = j * a[j]``."""
    return _fsum([f"{d[j]} * {u[k - j]}" for j in range(1, k + 1)])


def _literal_integer(node: Expression) -> int | None:
    """The exponent ``_jet_int_pow`` gets for a positive literal, else None."""
    if not isinstance(node, Num):
        return None
    value = float(node.value)
    return int(value) if _is_integer_exponent(value) and value >= 1.0 else None


class _JetEmitter:
    """Appends the statements of one jet function; a jet is 7 operand strings."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.scope: dict = {
            "EvaluationError": EvaluationError,
            "Jet": TaylorJet,
            "jet_pow": _jet_pow,
            "fsum": math.fsum,
            **{fn: getattr(math, fn) for fn in ("exp", "log", "sin", "cos", "sqrt")},
        }

    def let(self, expr: str) -> str:
        name = f"c{len(self.lines)}"
        self.lines.append(f"{name} = {expr}")
        return name

    def check(self, condition: str, error: str) -> None:
        self.lines.append(f"if {condition}: raise {error}")

    def jet(self, node: Expression) -> tuple[str, ...]:
        if isinstance(node, Num):
            return (_constant(float(node.value), self.scope),) + _ZEROS
        if isinstance(node, Var):
            return ("xf", "1.0") + _ZEROS[1:]
        if isinstance(node, Const):
            return (_constant(CONSTANTS[node.name], self.scope),) + _ZEROS
        if isinstance(node, Neg):
            return tuple(self.let(f"-{c}") for c in self.jet(node.arg))
        if isinstance(node, BinOp):
            a = self.jet(node.left)
            n = _literal_integer(node.right) if node.op == "^" else None
            if n is not None:
                return self.int_pow(a, n)
            b = self.jet(node.right)
            if node.op in "+-":
                return tuple(self.let(f"{a[j]} {node.op} {b[j]}") for j in range(_N))
            if node.op == "*":
                return self.mul(a, b)
            if node.op == "/":
                self.check(f"{b[0]} == 0.0", "EvaluationError('division by zero', x)")
                return self.div(a, b)
            names = [f"c{len(self.lines)}_{j}" for j in range(_N)]
            self.lines.append(
                f"{', '.join(names)} = jet_pow(Jet(({', '.join(a)},)), "
                f"Jet(({', '.join(b)},)), x).coeffs"
            )
            return tuple(names)
        if isinstance(node, Call) and node.fn in FUNCTIONS:
            a = self.jet(node.arg)
            if node.fn == "exp":
                return self.exp(a)
            if node.fn == "log":
                return self.log(a)
            if node.fn == "sqrt":
                return self.sqrt(a)
            s, c = self.sin_cos(a)
            if node.fn == "sin":
                return s
            if node.fn == "cos":
                return c
            self.check(f"{c[0]} == 0.0", "EvaluationError('tan at a pole', x)")
            return self.div(s, c)
        raise TypeError(f"not an expression node: {node!r}")

    def mul(self, a, b) -> tuple[str, ...]:
        return tuple(
            self.let(_fsum([f"{a[i]} * {b[j - i]}" for i in range(j + 1)]))
            for j in range(_N)
        )

    def div(self, a, b) -> tuple[str, ...]:
        """``TaylorJet.__truediv__`` after the caller's check of ``b[0]``."""
        q = [self.let(f"{a[0]} / {b[0]}")]
        for j in range(1, _N):
            terms = [f"{b[i]} * {q[j - i]}" for i in range(1, j + 1)]
            q.append(self.let(f"({a[j]} - {_fsum(terms)}) / {b[0]}"))
        return tuple(q)

    def int_pow(self, base, n: int) -> tuple[str, ...]:
        """``_jet_int_pow`` for ``n >= 1`` with its loop run at compile time."""
        result, square = None, base
        while n:
            if n & 1:
                result = square if result is None else self.mul(result, square)
            n >>= 1
            if n:
                square = self.mul(square, square)
        return result

    def scaled(self, a) -> list[str]:
        """``j * a[j]``, the left factor of every exp/sin/cos product."""
        return [""] + [self.let(f"{j} * {a[j]}") for j in range(1, _N)]

    def exp(self, a) -> tuple[str, ...]:
        u = [self.let(f"exp({a[0]})")]
        d = self.scaled(a)
        for k in range(1, _N):
            u.append(self.let(f"{_scaled_sum(d, u, k)} / {k}"))
        return tuple(u)

    def log(self, a) -> tuple[str, ...]:
        self.check(f"{a[0]} <= 0.0",
                   f"EvaluationError(f'log of non-positive value {{{a[0]}!r}}', x)")
        u = [self.let(f"log({a[0]})")]
        for k in range(1, _N):
            terms = [f"{j / k!r} * {u[j]} * {a[k - j]}" for j in range(1, k)]
            u.append(self.let(f"({a[k]} - {_fsum(terms)}) / {a[0]}"))
        return tuple(u)

    def sin_cos(self, a) -> tuple[tuple[str, ...], tuple[str, ...]]:
        s = [self.let(f"sin({a[0]})")]
        c = [self.let(f"cos({a[0]})")]
        d = self.scaled(a)
        for k in range(1, _N):
            s.append(self.let(f"{_scaled_sum(d, c, k)} / {k}"))
            c.append(self.let(f"-{_scaled_sum(d, s, k)} / {k}"))
        return tuple(s), tuple(c)

    def sqrt(self, a) -> tuple[str, ...]:
        self.check(
            f"{a[0]} <= 0.0",
            "EvaluationError("
            f"f'sqrt not differentiable at non-positive value {{{a[0]}!r}}', x)",
        )
        u = [self.let(f"sqrt({a[0]})")]
        twice = self.let(f"2.0 * {u[0]}")
        for k in range(1, _N):
            terms = [f"{u[j]} * {u[k - j]}" for j in range(1, k)]
            u.append(self.let(f"({a[k]} - {_fsum(terms)}) / {twice}"))
        return tuple(u)


def compile_jet(expr: Expression) -> Callable[[float], tuple[float, ...]]:
    """Compile the tree once into a function of ``x`` returning its jet.

    The function returns exactly ``derivatives(expr, x).coeffs`` and
    raises the same exceptions with the same messages and abscissae, at a
    fraction of the cost per point.  Compiling a well-formed tree never
    raises: an error belongs to the propagation at its abscissa.
    """
    emitter = _JetEmitter()
    coeffs = emitter.jet(expr)
    body = "".join(f"        {line}\n" for line in emitter.lines)
    source = (
        "def jet(x):\n"
        "    try:\n"
        "        xf = float(x)\n"
        f"{body}"
        f"        return ({', '.join(coeffs)})\n"
        "    except OverflowError:\n"
        "        raise EvaluationError("
        "'overflow during derivative propagation', x) from None\n"
        "    except ZeroDivisionError as exc:\n"
        "        raise EvaluationError(str(exc), x) from None\n"
    )
    exec(compile(source, "<msquad jet>", "exec"), emitter.scope)
    return emitter.scope["jet"]


def expression_integrand(
    text: str, df_text: str | None = None, name: str | None = None
) -> Integrand:
    """Build an :class:`Integrand` from expression text.

    Point values come from the tree compiled once by
    :func:`~msquad.expressions.compile_expression`, derivatives of all
    orders from its jet compiled by :func:`compile_jet` on the first
    derivative asked for (rules that take none never pay for it);
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

    return Integrand(compile_expression(expr), provider, max_order=ORDER, name=name or text)
