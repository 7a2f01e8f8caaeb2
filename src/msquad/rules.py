"""Single-panel and composite quadrature rules.

Four rules are provided: the midpoint rule, the endpoint-corrected
midpoint rule, Simpson's rule, and the endpoint-corrected Simpson rule
with weights 7/30, 16/30, 7/30 (exact for polynomials of degree 5).
Composite forms run over a :class:`~msquad.integrand.UniformGrid`; the
derivative corrections telescope, so only the two global endpoint
derivatives are ever evaluated.  An expression integrand sums its pairs in
one traced loop with its point values inlined; any error in it is replayed
through the checked streaming loop that every callable integrand runs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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

    ``leading_error_estimate`` (corrected Simpson rule only) is filled when
    the integrand supplies a finite f^(5) at both endpoints and the estimate
    does not overflow; otherwise it is None and the value stands.
    """

    value: float
    rule_id: Rule
    panels: int
    leading_error_estimate: float | None = None


# The term of one pair of subintervals is (h/d) * (we*fa + wm*fm + we*fb),
# by (divisor d, end weight we, mid weight wm); a weight of 1.0 multiplies
# exactly, so Simpson's is bitwise (h/3) * (fa + 4 fm + fb).
_PAIRS = {Rule.SIMPSON: (3.0, 1.0, 4.0), Rule.MODIFIED_SIMPSON: (15.0, 7.0, 16.0)}


def _pair(fa: float, fm: float, fb: float, h: float, d: float, we: float, wm: float) -> float:
    return (h / d) * (we * fa + wm * fm + we * fb)


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
    value = _pair(f(iv.a), f(iv.midpoint), f(iv.b), h, *_PAIRS[Rule.SIMPSON])
    return _finite(value, "simpson rule value")


def modified_simpson_panel(f: Integrand, iv: Interval) -> float:
    """Endpoint-corrected Simpson rule, exact through degree 5.

    ``(b-a)/30 * [7 f(a) + 16 f(m) + 7 f(b)] - (b-a)^2/60 * [f'(b) - f'(a)]``
    """
    h = 0.5 * iv.width
    weighted = _pair(f(iv.a), f(iv.midpoint), f(iv.b), h, *_PAIRS[Rule.MODIFIED_SIMPSON])
    correction = (h * h / 15.0) * (f.derivative(1, iv.b) - f.derivative(1, iv.a))
    return _finite(weighted - correction, "msimpson rule value")


def _pair_sum(f: Integrand, grid: UniformGrid, rule: Rule) -> float:
    """Correctly rounded sum of the rule's pair terms over the grid.

    Nodes stream from :meth:`UniformGrid.nodes` in increasing order and
    each pair's right-hand value is the next pair's left-hand value, so
    memory does not grow with the pair count.  An expression integrand's
    traced pair loop checks no point value: if it raises, or its sum is not
    finite (as any non-finite point value makes it), the checked stream of
    ``f(x)`` replays the sum and alone decides the error.  Returns NaN when
    the sum overflows, which :func:`_finite` reports.
    """
    h = grid.h
    d, we, wm = _PAIRS[rule]
    if f._pair_terms is not None:
        try:
            total = math.fsum(f._pair_terms(grid.nodes(), h / d, we, wm))
        except Exception:  # the replay raises it as the checked path does
            total = math.nan
        if math.isfinite(total):
            return total
    values = map(f, grid.nodes())

    def terms():
        fa = next(values)
        for fm, fb in zip(values, values):
            yield _pair(fa, fm, fb, h, d, we, wm)
            fa = fb

    try:
        return math.fsum(terms())
    except (OverflowError, ValueError):  # fsum: intermediate overflow, or inf - inf
        return math.nan


def composite_simpson(f: Integrand, grid: UniformGrid) -> QuadResult:
    """Composite Simpson rule over the grid's pairs of subintervals."""
    return QuadResult(
        value=_finite(_pair_sum(f, grid, Rule.SIMPSON), "simpson rule value"),
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
    total = _pair_sum(f, grid, Rule.MODIFIED_SIMPSON)
    h = grid.h
    iv = grid.interval
    correction = (h * h / 15.0) * (f.derivative(1, iv.b) - f.derivative(1, iv.a))
    try:  # None when f^(5) is missing or fails at an endpoint, or h^6 overflows
        estimate = leading_error_estimate(f, grid)
    except (DerivativeUnavailableError, EvaluationError, OverflowError):
        estimate = math.inf
    return QuadResult(
        value=_finite(total - correction, "msimpson rule value"),
        rule_id=Rule.MODIFIED_SIMPSON,
        panels=grid.n_pairs,
        leading_error_estimate=estimate if math.isfinite(estimate) else None,
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
