"""Integration domains and the integrand abstraction.

An :class:`Integrand` bundles a scalar function with whatever derivative
orders it can supply (up to 6).  Quadrature rules ask for exactly the
orders they need and get a capability error when an order is missing,
so a plain callback without derivatives still works with the uncorrected
rules.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import DerivativeUnavailableError, EvaluationError

MAX_DERIVATIVE_ORDER = 6


def _make(cls, fields):
    """``_make``, and so ``_replace``, of a record that checks its fields."""
    return cls(*fields)


class _IntervalFields(NamedTuple):
    a: float
    b: float


class Interval(_IntervalFields):
    """Oriented integration interval with ``a < b``.

    Reversed intervals are rejected here; the CLI normalizes them by
    swapping the endpoints and negating the integral.
    """

    __slots__ = ()
    _make = classmethod(_make)

    def __new__(cls, *fields, **named) -> Interval:
        iv = super().__new__(cls, *fields, **named)
        if not (math.isfinite(iv.a) and math.isfinite(iv.b)):
            raise ValueError("interval endpoints must be finite")
        if not iv.a < iv.b:
            raise ValueError(f"interval requires a < b, got [{iv.a}, {iv.b}]")
        if not math.isfinite(iv.b - iv.a):
            raise ValueError(f"interval width b - a overflows, got [{iv.a}, {iv.b}]")
        return iv

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        # a + h with h = (b - a)/2: node 1 of a one-pair UniformGrid, so the
        # midpoint rules sample f where the Simpson rules do on one pair.
        return self.a + 0.5 * (self.b - self.a)


class _GridFields(NamedTuple):
    interval: Interval
    n_pairs: int


class UniformGrid(_GridFields):
    """Even partition of an interval into ``2 * n_pairs`` subintervals.

    Taking the pair count directly makes odd subinterval totals
    unrepresentable; the paired rules require them even.
    """

    __slots__ = ()
    _make = classmethod(_make)

    def __new__(cls, *fields, **named) -> UniformGrid:
        grid = super().__new__(cls, *fields, **named)
        if not isinstance(grid.n_pairs, int) or isinstance(grid.n_pairs, bool):
            raise ValueError("n_pairs must be an integer")
        if grid.n_pairs < 1:
            raise ValueError(f"n_pairs must be >= 1, got {grid.n_pairs}")
        if not grid.h > 0:
            raise ValueError("grid spacing (b - a)/(2n) underflows to 0")
        return grid

    @property
    def h(self) -> float:
        return (self.interval.b - self.interval.a) / (2 * self.n_pairs)

    @property
    def n_subintervals(self) -> int:
        return 2 * self.n_pairs

    def nodes(self) -> Iterator[float]:
        """Grid nodes ``x_j = a + j*h`` in increasing order, generated one
        at a time; the first node is exactly ``a`` (``-0.0 + 0*h`` would be
        ``+0.0``) and the last exactly ``b``."""
        a = self.interval.a
        h = self.h
        yield a
        for j in range(1, 2 * self.n_pairs):
            yield a + j * h
        yield self.interval.b


class Integrand:
    """Scalar function with derivatives available up to ``max_order``.

    ``derivative(0, x)`` is the function value itself.  Orders beyond
    ``max_order`` raise :class:`DerivativeUnavailableError`.  All values
    are checked finite; a non-finite result raises
    :class:`EvaluationError` carrying the offending abscissa.
    """

    # The private fast interface: None, so a callable integrand is always
    # checked.  An expression integrand's is compiled code that returns
    # floats unchecked: ``value(x)``, the composite pair loop
    # ``pair_terms(a, b, h, m, c, we, wm)`` and ``jet(k)``, a function of
    # ``x`` whose item ``k`` times ``k!`` is f^(k)(x).  The rules' pair sums,
    # the reference oracle and the range estimator keep one replay rule: a
    # fast result stands where it is finite, and where it is not, or the
    # fast code raises any ``Exception``, the checked ``f(x)`` or
    # ``f.derivative`` runs the same points and alone decides the error.
    _fast = None

    def __init__(
        self,
        fn: Callable[[float], float],
        derivative_fn: Callable[[int, float], float] | None = None,
        max_order: int = 0,
        name: str | None = None,
    ):
        if not 0 <= max_order <= MAX_DERIVATIVE_ORDER:
            raise ValueError(f"max_order must be in 0..{MAX_DERIVATIVE_ORDER}")
        self._fn = fn
        self._derivative_fn = derivative_fn
        self._max_order = max_order
        self.name = name

    @classmethod
    def from_callables(
        cls,
        fn: Callable[[float], float],
        *derivatives: Callable[[float], float],
        name: str | None = None,
    ) -> "Integrand":
        """Build from a value callable plus per-order derivative callables.

        ``derivatives[i]`` supplies order ``i + 1``.
        """
        derivs: Sequence[Callable[[float], float]] = tuple(derivatives)
        if len(derivs) > MAX_DERIVATIVE_ORDER:
            raise ValueError(f"at most {MAX_DERIVATIVE_ORDER} derivative orders supported")

        def provider(order: int, x: float) -> float:
            return derivs[order - 1](x)

        return cls(fn, provider, max_order=len(derivs), name=name)

    @property
    def max_order(self) -> int:
        return self._max_order

    def _checked(self, what: str, x: float, fn: Callable, *args) -> float:
        """``fn(*args)`` as a finite float, else :class:`EvaluationError` at ``x``."""
        try:
            raw = fn(*args)
        except EvaluationError:
            raise
        except (ArithmeticError, ValueError) as exc:
            raise EvaluationError(str(exc), x) from exc
        try:
            value = float(raw)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise EvaluationError(f"{what} is not a number", x) from None
        if not math.isfinite(value):
            raise EvaluationError(f"{what} is non-finite", x)
        return value

    def __call__(self, x: float) -> float:
        return self._checked("function value", x, self._fn, x)

    def derivative(self, order: int, x: float) -> float:
        if not isinstance(order, int) or isinstance(order, bool) or order < 0:
            raise ValueError(f"derivative order must be a non-negative integer, got {order!r}")
        if order == 0:
            return self(x)
        if order > self._max_order or self._derivative_fn is None:
            raise DerivativeUnavailableError(order, self._max_order)
        return self._checked(f"derivative of order {order}", x, self._derivative_fn, order, x)
