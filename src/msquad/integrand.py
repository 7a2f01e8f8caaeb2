"""Integration domains and the integrand abstraction.

An :class:`Integrand` bundles a scalar function with whatever derivative
orders it can supply (up to 6).  Quadrature rules ask for exactly the
orders they need and get a capability error when an order is missing,
so a plain callback without derivatives still works with the uncorrected
rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .errors import DerivativeUnavailableError, EvaluationError

MAX_DERIVATIVE_ORDER = 6


@dataclass(frozen=True)
class Interval:
    """Oriented integration interval with ``a < b``.

    Reversed intervals are rejected here; the CLI normalizes them by
    swapping the endpoints and negating the integral.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got [{self.a}, {self.b}]")
        if not math.isfinite(self.b - self.a):
            raise ValueError(f"interval width b - a overflows, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        # a + h with h = (b - a)/2; shared with UniformGrid node placement
        # so single-pair composites match the panel rules bitwise.
        return self.a + 0.5 * (self.b - self.a)


@dataclass(frozen=True)
class UniformGrid:
    """Even partition of an interval into ``2 * n_pairs`` subintervals.

    Taking the pair count directly makes odd subinterval totals
    unrepresentable; the paired rules require them even.
    """

    interval: Interval
    n_pairs: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_pairs, int) or isinstance(self.n_pairs, bool):
            raise ValueError("n_pairs must be an integer")
        if self.n_pairs < 1:
            raise ValueError(f"n_pairs must be >= 1, got {self.n_pairs}")

    @property
    def h(self) -> float:
        return (self.interval.b - self.interval.a) / (2 * self.n_pairs)

    @property
    def n_subintervals(self) -> int:
        return 2 * self.n_pairs

    def nodes(self) -> Iterator[float]:
        """Grid nodes ``x_j = a + j*h`` in increasing order, generated one
        at a time; the last node is exactly ``b``."""
        a = self.interval.a
        h = self.h
        for j in range(2 * self.n_pairs):
            yield a + j * h
        yield self.interval.b


class Integrand:
    """Scalar function with derivatives available up to ``max_order``.

    ``derivative(0, x)`` is the function value itself.  Orders beyond
    ``max_order`` raise :class:`DerivativeUnavailableError`.  All values
    are checked finite; a non-finite result raises
    :class:`EvaluationError` carrying the offending abscissa.
    """

    # An expression integrand's traced composite pair loop.  Its presence
    # also marks ``_fn`` as compiled code returning floats, which the
    # reference oracle samples unchecked and replays through ``f(x)``.
    _pair_terms = None

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

    def _checked(self, raw: object, x: float, what: str) -> float:
        try:
            value = float(raw)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise EvaluationError(f"{what} is not a number", x) from None
        if not math.isfinite(value):
            raise EvaluationError(f"{what} is non-finite", x)
        return value

    def __call__(self, x: float) -> float:
        try:
            raw = self._fn(x)
        except EvaluationError:
            raise
        except (ArithmeticError, ValueError) as exc:
            raise EvaluationError(str(exc), x) from exc
        return self._checked(raw, x, "function value")

    def derivative(self, order: int, x: float) -> float:
        if not isinstance(order, int) or isinstance(order, bool) or order < 0:
            raise ValueError(f"derivative order must be a non-negative integer, got {order!r}")
        if order == 0:
            return self(x)
        if order > self._max_order or self._derivative_fn is None:
            raise DerivativeUnavailableError(order, self._max_order)
        try:
            raw = self._derivative_fn(order, x)
        except EvaluationError:
            raise
        except (ArithmeticError, ValueError) as exc:
            raise EvaluationError(str(exc), x) from exc
        return self._checked(raw, x, f"derivative of order {order}")
