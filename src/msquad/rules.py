"""Single-panel and composite quadrature rules.

Four rules are provided: the midpoint rule, the endpoint-corrected
midpoint rule, Simpson's rule, and the endpoint-corrected Simpson rule
with weights 7/30, 16/30, 7/30 (exact for polynomials of degree 5).
Composite forms run over a :class:`~msquad.integrand.UniformGrid`; the
derivative corrections telescope, so only the two global endpoint
derivatives are ever evaluated.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

from .errors import DerivativeUnavailableError, EvaluationError
from .integrand import Integrand, Interval, UniformGrid

# Per pair of subintervals the corrected Simpson error is, to leading
# order, h^6/9450 * [f^(5)(right) - f^(5)(left)]; summed over a grid the
# differences telescope to the global endpoints.  An exact-arithmetic
# check on x^6 over [-1, 1] (true error 16/105 = 1440/9450) pins the
# denominator at 9450.
LEADING_ERROR_DENOMINATOR = 9450.0


class Rule(enum.Enum):
    """Identifiers for the supported quadrature rules."""

    MIDPOINT = "midpoint"
    CORRECTED_MIDPOINT = "cmidpoint"
    SIMPSON = "simpson"
    MODIFIED_SIMPSON = "msimpson"


@dataclass(frozen=True)
class QuadResult:
    """Outcome of a composite rule application.

    ``leading_error_estimate`` is filled only when the integrand supplies
    derivative order 5 (corrected Simpson rule only).
    """

    value: float
    rule_id: Rule
    panels: int
    leading_error_estimate: float | None = None


def _simpson_pair(fa: float, fm: float, fb: float, h: float) -> float:
    return (h / 3.0) * (fa + 4.0 * fm + fb)


def _modified_pair(fa: float, fm: float, fb: float, h: float) -> float:
    return (h / 15.0) * (7.0 * fa + 16.0 * fm + 7.0 * fb)


def _finite(value: float, what: str) -> float:
    """``value``, or :class:`EvaluationError` if it is inf or NaN.

    Integrand values are finite, so a non-finite result means the
    arithmetic of the rule overflowed.
    """
    if not math.isfinite(value):
        raise EvaluationError(f"{what} overflows")
    return value


def midpoint_panel(f: Integrand, iv: Interval) -> float:
    """Midpoint rule: ``(b - a) * f((a + b)/2)``; exact through degree 1."""
    return _finite(iv.width * f(iv.midpoint), "midpoint rule value")


def corrected_midpoint_panel(f: Integrand, iv: Interval) -> float:
    """Midpoint rule plus the endpoint-derivative correction.

    ``(b-a) f(m) + (b-a)^2/24 * [f'(b) - f'(a)]``; exact through degree 3.
    """
    w = iv.width
    correction = (w * w / 24.0) * (f.derivative(1, iv.b) - f.derivative(1, iv.a))
    return _finite(w * f(iv.midpoint) + correction, "cmidpoint rule value")


def simpson_panel(f: Integrand, iv: Interval) -> float:
    """Simpson's rule ``(b-a)/6 * [f(a) + 4 f(m) + f(b)]``."""
    h = 0.5 * iv.width
    return _finite(_simpson_pair(f(iv.a), f(iv.midpoint), f(iv.b), h), "simpson rule value")


def modified_simpson_panel(f: Integrand, iv: Interval) -> float:
    """Endpoint-corrected Simpson rule, exact through degree 5.

    ``(b-a)/30 * [7 f(a) + 16 f(m) + 7 f(b)] - (b-a)^2/60 * [f'(b) - f'(a)]``
    """
    h = 0.5 * iv.width
    weighted = _modified_pair(f(iv.a), f(iv.midpoint), f(iv.b), h)
    correction = (h * h / 15.0) * (f.derivative(1, iv.b) - f.derivative(1, iv.a))
    return _finite(weighted - correction, "msimpson rule value")


def _pair_sum(
    f: Integrand, grid: UniformGrid, pair: Callable[[float, float, float, float], float]
) -> float:
    """Correctly rounded sum of ``pair`` over the grid's pairs of subintervals.

    Nodes stream from :meth:`UniformGrid.nodes` in increasing order and
    each pair's right-hand value is the next pair's left-hand value, so
    memory does not grow with the pair count.  Returns NaN when the sum
    overflows, which :func:`_finite` reports.
    """
    h = grid.h
    values = map(f, grid.nodes())

    def terms():
        fa = next(values)
        for fm, fb in zip(values, values):
            yield pair(fa, fm, fb, h)
            fa = fb

    try:
        return math.fsum(terms())
    except (OverflowError, ValueError):  # fsum: intermediate overflow, or inf - inf
        return math.nan


def composite_simpson(f: Integrand, grid: UniformGrid) -> QuadResult:
    """Composite Simpson rule over the grid's pairs of subintervals."""
    return QuadResult(
        value=_finite(_pair_sum(f, grid, _simpson_pair), "simpson rule value"),
        rule_id=Rule.SIMPSON,
        panels=grid.n_pairs,
        leading_error_estimate=None,
    )


def composite_modified_simpson(f: Integrand, grid: UniformGrid) -> QuadResult:
    """Composite corrected Simpson rule.

    The per-pair derivative corrections telescope, so ``f'`` is evaluated
    at exactly two points (the global endpoints) regardless of the pair
    count.  With a single pair this reproduces
    :func:`modified_simpson_panel` bitwise.
    """
    total = _pair_sum(f, grid, _modified_pair)
    h = grid.h
    iv = grid.interval
    correction = (h * h / 15.0) * (f.derivative(1, iv.b) - f.derivative(1, iv.a))
    try:
        estimate: float | None = leading_error_estimate(f, grid)
    except DerivativeUnavailableError:
        estimate = None
    return QuadResult(
        value=_finite(total - correction, "msimpson rule value"),
        rule_id=Rule.MODIFIED_SIMPSON,
        panels=grid.n_pairs,
        leading_error_estimate=estimate,
    )


def leading_error_estimate(f: Integrand, grid: UniformGrid) -> float:
    """Leading-order error of the composite corrected Simpson rule.

    ``h^6/9450 * [f^(5)(b) - f^(5)(a)]``; requires derivative order 5.
    """
    iv = grid.interval
    delta = f.derivative(5, iv.b) - f.derivative(5, iv.a)
    return grid.h**6 / LEADING_ERROR_DENOMINATOR * delta


COMPOSITE_RULES = {
    Rule.SIMPSON: composite_simpson,
    Rule.MODIFIED_SIMPSON: composite_modified_simpson,
}
