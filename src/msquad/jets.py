"""Forward Taylor-mode differentiation of expression trees.

A jet holds truncated Taylor coefficients ``c_j = f^(j)(x0) / j!`` for
j = 0..k, k <= 6; its length is its order.  Coefficient j of every
recurrence depends only on the input coefficients 0..j, and a power's path
only on its tree, so a jet cut off at order k carries the bits of the
order-6 jet's first k + 1 coefficients.  The bounds machinery asks for one
order at a time (the corrected rules order 1, the leading-error estimate
order 5 and the bound families orders 2..6), and each is propagated no
further than its own order.  There is no jet walker: a jet is a value of
the Taylor arithmetic ``_Jets``, whose operations are the recurrences
below, written once against a scalar arithmetic of
:mod:`msquad.expressions`, and the one tree walker of that module runs on
it.  Over ``Binary64`` that is :func:`derivatives`, the reference, and over
``Tracer`` it writes the straight-line function that :func:`compile_jet`
returns.  A :class:`TaylorJet` is just a result.

Each sum of products is one ``_sum``: it drops the terms known to be zero
(zero constants when traced, values equal to 0.0 on floats), writes one
term ``t`` as ``t + 0.0``, two as the scalar arithmetic's ``sum2`` and more
as ``fsum``.  The rule is the Taylor arithmetic's, so compiled and
reference jets run the same operations on any Python.  Compiled code has
no checks: a compiled jet returns its lines' result where its two-term sums
add up to a finite value, and at every other point, or where a line
raises, ``derivatives(expr, x, order).coeffs`` decides.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import EvaluationError
from .expressions import (
    Binary64,
    Expression,
    Tracer,
    _value,
    compile_expression,
    compile_pair_terms,
    parse,
)
from .integrand import MAX_DERIVATIVE_ORDER as ORDER, Integrand

_FACTORIALS = tuple(math.factorial(j) for j in range(ORDER + 1))
_OVERFLOW = "overflow during derivative propagation"
_ZERO_SERIES = "jet division by a series with zero value"
_SQRT_SINGULAR = "sqrt not differentiable at non-positive value {!r}"


class TaylorJet:
    """The jet :func:`derivatives` returns; it is a result and does no
    arithmetic (that is ``_Jets``', in the recurrences below)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(float(c) for c in coeffs)
        if not 1 <= len(cs) <= ORDER + 1:
            raise ValueError(f"jet needs 1 to {ORDER + 1} coefficients, got {len(cs)}")
        self.coeffs = cs

    @property
    def value(self) -> float:
        return self.coeffs[0]

    def derivative(self, order: int) -> float:
        """``f^(order)(x0)``, i.e. the coefficient rescaled by order!."""
        if not 0 <= order < len(self.coeffs):
            raise ValueError(f"jet carries orders 0..{len(self.coeffs) - 1}, got {order}")
        return self.coeffs[order] * _FACTORIALS[order]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaylorJet({self.coeffs!r})"


# -- the arithmetic ----------------------------------------------------------
#
# A jet is a tuple of one to seven values of arithmetic ``A``, each
# coefficient one ``let``; the operands of one operation have one length,
# the jet's order plus one.  Each sum of products is one ``_sum``: traced,
# the products stay inside its sum, where binding each to a local would
# only add stores.  Coefficient j of every recurrence reads the input
# coefficients 0..j only, so nothing above the order is computed, and an
# order fails only where its own coefficients or lower ones raise (an
# ``fsum`` raises on inf - inf, or on overflow).  Up to the order every
# coefficient is computed, the cosine that sin does not return too, so
# which inputs fail depends on all of them.  The sign of a NaN is not kept:
# CPython 3.11 takes it for a product of two NaNs from either operand,
# depending on whether it has specialised that multiplication yet.


class _Jets:
    """The Taylor arithmetic over the scalar arithmetic ``A``: values are
    jets of ``order``, and each operation is its recurrence.  The walker's
    checks and its test for a known exponent read coefficient 0, and
    ``let`` is the identity, as every coefficient is bound already."""

    let = staticmethod(lambda v: v)

    def __init__(self, A, order: int):
        if not 0 <= order <= ORDER:
            raise ValueError(f"jet order must be in 0..{ORDER}, got {order!r}")
        self.A = A
        self.zeros = (0.0,) * order
        # a derivative of sqrt divides by 2*sqrt(a0), so it needs a0 > 0; an
        # order-0 jet asks for none, and its sqrt(0) is the value
        self.sqrt_domain = ("<=" if order else "<", _SQRT_SINGULAR)

    def variable(self, x):
        """The jet of the variable at ``x``."""
        return (x, 1.0, *self.zeros)[:len(self.zeros) + 1]

    def const(self, c):
        return (self.A.const(c), *self.zeros)

    def known(self, v):
        return self.A.known(v[0])

    def check(self, v, test: str, message: str) -> None:
        self.A.check(v[0], test, message)

    def neg(self, a):
        return tuple(self.A.let(self.A.neg(c)) for c in a)

    def add(self, a, b):
        return tuple(self.A.let(self.A.add(p, q)) for p, q in zip(a, b))

    def sub(self, a, b):
        return tuple(self.A.let(self.A.sub(p, q)) for p, q in zip(a, b))

    def _sum(self, terms):
        """The sum of ``terms``, as the module docstring writes it."""
        terms = [t for t in terms if self.A.known(t) != 0.0]
        if len(terms) == 1:
            return self.A.add(terms[0], 0.0)
        return self.A.sum2(*terms) if len(terms) == 2 else self.A.fsum(terms)

    def mul(self, a, b):
        A = self.A
        return tuple(A.let(self._sum([A.mul(a[i], b[j - i]) for i in range(j + 1)]))
                     for j in range(len(a)))

    def div(self, a, b):
        """The quotient, once the walker has checked ``b[0]``."""
        A = self.A
        q = [A.let(A.div(a[0], b[0]))]
        for j in range(1, len(a)):
            acc = A.sub(a[j], self._sum([A.mul(b[i], q[j - i]) for i in range(1, j + 1)]))
            q.append(A.let(A.div(acc, b[0])))
        return tuple(q)

    def pow(self, base, n: int):
        """Square and multiply, for the walker's ``n`` != 0; on the tracer
        the loop unrolls itself."""
        if n < 0:
            p = self.pow(base, -n)
            self.A.check(p[0], "==", _ZERO_SERIES)
            return self.div((1.0, *self.zeros), p)
        result, square = None, base
        while n:
            if n & 1:
                result = square if result is None else self.mul(result, square)
            n >>= 1
            if n:
                square = self.mul(square, square)
        return result

    def _scaled(self, a):
        """``j * a[j]``, the left factor of every exp and sin/cos product."""
        return [None] + [self.A.let(self.A.mul(j, a[j])) for j in range(1, len(a))]

    def exp(self, a):
        A = self.A
        u = [A.let(A.exp(a[0]))]
        d = self._scaled(a)
        for k in range(1, len(a)):
            u.append(A.let(A.div(self._sum([A.mul(d[j], u[k - j]) for j in range(1, k + 1)]), k)))
        return tuple(u)

    def log(self, a):
        """The logarithm, once the walker has checked ``a[0] > 0``."""
        A = self.A
        u = [A.let(A.log(a[0]))]
        for k in range(1, len(a)):
            terms = [A.mul(A.mul(j / k, u[j]), a[k - j]) for j in range(1, k)]
            u.append(A.let(A.div(A.sub(a[k], self._sum(terms)), a[0])))
        return tuple(u)

    def _sin_cos(self, a):
        A = self.A
        s = [A.let(A.sin(a[0]))]
        c = [A.let(A.cos(a[0]))]
        d = self._scaled(a)
        for k in range(1, len(a)):
            s.append(A.let(A.div(self._sum([A.mul(d[j], c[k - j]) for j in range(1, k + 1)]), k)))
            c.append(A.let(A.div(A.neg(self._sum([A.mul(d[j], s[k - j])
                                                   for j in range(1, k + 1)])), k)))
        return tuple(s), tuple(c)

    def sin(self, a):
        return self._sin_cos(a)[0]

    def cos(self, a):
        return self._sin_cos(a)[1]

    def tan(self, a):
        s, c = self._sin_cos(a)
        self.A.check(c[0], "==", "tan at a pole")
        return self.div(s, c)

    def sqrt(self, a):
        """The square root, once the walker has checked ``a[0]`` by ``sqrt_domain``."""
        A = self.A
        u = [A.let(A.sqrt(a[0]))]
        twice = A.let(A.mul(2.0, u[0]))
        for k in range(1, len(a)):
            terms = [A.mul(u[j], u[k - j]) for j in range(1, k)]
            u.append(A.let(A.div(A.sub(a[k], self._sum(terms)), twice)))
        return tuple(u)


def derivatives(expr: Expression, x0: float, order: int = ORDER) -> TaylorJet:
    """Propagate the order-``order`` jet of ``expr`` through the tree at ``x0``."""
    try:
        x = float(x0)
        A = _Jets(Binary64(x0), order)
        return TaylorJet(_value(A, expr, A.variable(x)))
    except OverflowError:
        raise EvaluationError(_OVERFLOW, x0) from None


def compile_jet(expr: Expression, order: int = ORDER) -> Callable[[float], tuple[float, ...]]:
    """Compile the tree once into a function of ``x`` that returns
    ``derivatives(expr, x, order).coeffs`` and raises what
    :func:`derivatives` does.  Its guard keeps the replay rule of
    :class:`Integrand`: the lines' result stands where the two-term sums
    add up to a finite value, and elsewhere, or where any line raises, the
    checked :func:`derivatives` decides the point.  Compiling never raises."""
    tracer = Tracer()
    A = _Jets(tracer, order)
    return tracer.guarded(_value(A, expr, A.variable(tracer.let("float(x)"))),
                          lambda x: derivatives(expr, x, order).coeffs, "<msquad jet>")


class _Fast:
    """An expression integrand's fast interface (see
    :class:`~msquad.integrand.Integrand`), each piece compiled on first use."""

    def __init__(self, expr: Expression, df: Callable[[float], float] | None):
        self.expr, self.value = expr, compile_expression(expr)
        # order -> its jet; a df override is order 1, with no coefficient 0
        self.jets = {} if df is None else {1: lambda x: (None, df(x))}

    def jet(self, order: int) -> Callable[[float], tuple]:
        jet = self.jets.get(order)
        if jet is None:
            jet = self.jets[order] = compile_jet(self.expr, order)
        return jet

    def derivative(self, order: int, x: float) -> float:
        """f^(order)(x) by :meth:`jet`: the provider that ``f.derivative`` checks."""
        try:
            return self.jet(order)(x)[order] * _FACTORIALS[order]
        except ValueError as exc:
            if not str(exc).endswith(" in fsum"):  # sin or cos of an infinite value
                raise
            # a recurrence's fsum met inf - inf: that coefficient is not finite
            raise EvaluationError(f"derivative of order {order} is non-finite", x) from None

    def pair_terms(self, *args):  # compiles on the first call, then is replaced
        self.pair_terms = compile_pair_terms(self.expr)
        return self.pair_terms(*args)


def expression_integrand(text: str, df_text: str | None = None) -> Integrand:
    """Build an :class:`Integrand` from expression text.

    Its fast interface ``f._fast`` holds the tree compiled by
    :func:`~msquad.expressions.compile_expression`, the order-k jet of
    :func:`compile_jet` from the first request for that order and the pair
    loop of :func:`~msquad.expressions.compile_pair_terms` from the first
    composite rule; ``f(x)`` and ``f.derivative`` check the same functions.
    ``df_text``, when given, is compiled too and overrides order 1 only, on
    both paths (orders 2..6 still come from the jets of ``text``).  ``text``
    is parsed first.
    """
    expr = parse(text)
    fast = _Fast(expr, compile_expression(parse(df_text)) if df_text is not None else None)
    f = Integrand(fast.value, fast.derivative, max_order=ORDER, name=text)
    f._fast = fast
    return f
