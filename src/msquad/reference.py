"""High-accuracy reference integrals and empirical convergence studies.

The reference oracle is an adaptive bisection scheme built on the
embedded Gauss(7)/Kronrod(15) pair -- deliberately a different algorithm
family from the fixed rules under test, so reference errors are not
correlated with rule errors.  Convergence studies run a composite rule
over a sequence of grids, measure absolute errors against the oracle and
fit the empirical order as the log-log slope.
"""

from __future__ import annotations

import functools
import heapq
import math
from typing import Callable, NamedTuple

from .errors import ReferenceConvergenceError
from .integrand import Integrand, Interval, UniformGrid
from .rules import COMPOSITE_RULES, Rule, _endpoint_slope, _finite, _rule_value

# 15-point Kronrod nodes on [-1, 1] (positive half, outermost first, the
# centre last) and their weights; the embedded 7-point Gauss nodes are
# every second one, _XGK[1::2], with the weights _WG.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_EPS = 2.220446049250313e-16
_UNIT = 1 << 1074  # 2**-1074, the smallest subnormal, is 1 / _UNIT
_MIN_TOL = 1e-14
_DEFAULT_SEGMENT_LIMIT = 2048
ROUNDING_FLOOR = 1e-13  # composite errors below this sit on the fp floor
PREASYMPTOTIC_CEILING = 1e-2


class ReferenceResult(NamedTuple):
    value: float
    est_abs_error: float
    subdivisions: int


def _samples(g: Callable[[float], float], centre: float, scale: float) -> list[float]:
    """The 15 values of ``g`` on the G7/K15 nodes about ``centre``:
    (below, above) at each node but the centre, outermost first, then the
    centre."""
    x0, x1, x2, x3, x4, x5, x6, _ = _XGK
    return [
        g(centre - scale * x0), g(centre + scale * x0),
        g(centre - scale * x1), g(centre + scale * x1),
        g(centre - scale * x2), g(centre + scale * x2),
        g(centre - scale * x3), g(centre + scale * x3),
        g(centre - scale * x4), g(centre + scale * x4),
        g(centre - scale * x5), g(centre + scale * x5),
        g(centre - scale * x6), g(centre + scale * x6),
        g(centre),
    ]


def _kronrod_segment(
    f: Integrand, lo: float, hi: float
) -> tuple[float, float, float, float]:
    """One G7/K15 application on [lo, hi]: returns (value, error estimate,
    rounding floor, fixed floor).  The estimate is never below the floor;
    the fixed floor is the floor where bisecting cannot lower it, else 0.

    One sampler, :func:`_samples`, feeds both passes of the replay rule of
    :class:`Integrand`: an expression integrand's fast ``f._fast.value``
    first, kept where the 15 values sum to a finite number, else the
    checked ``f`` in the same order, which alone decides the error (a sum
    that overflows on finite values replays the same values).  The four
    sums of ``dqk15`` are written out term by term, each a correctly
    rounded :func:`math.fsum` over a literal tuple of its products, so no
    summation order shows."""
    scale = 0.5 * (hi - lo)
    centre = lo + scale
    s = None
    if f._fast is not None:
        try:
            s = _samples(f._fast.value, centre, scale)
        except Exception:
            pass
    if s is None or not math.isfinite(sum(s)):
        s = _samples(f, centre, scale)
    if s.count(s[14]) == 15:
        # flat samples: the embedded pair is exact, difference estimate is 0
        return _finite(s[0] * (hi - lo), "reference value"), 0.0, 0.0, 0.0

    a0, b0, a1, b1, a2, b2, a3, b3, a4, b4, a5, b5, a6, b6, c = s
    k0, k1, k2, k3, k4, k5, k6, k7 = _WGK
    g1, g3, g5, g7 = _WG  # the Gauss weights, named by Kronrod node
    resk = math.fsum((
        k0 * (a0 + b0), k1 * (a1 + b1), k2 * (a2 + b2), k3 * (a3 + b3),
        k4 * (a4 + b4), k5 * (a5 + b5), k6 * (a6 + b6), k7 * c,
    ))
    resg = math.fsum((g1 * (a1 + b1), g3 * (a3 + b3), g5 * (a5 + b5), g7 * c))
    value = resk * scale

    reskh = 0.5 * resk
    absk = math.fsum((
        k0 * (abs(a0) + abs(b0)), k1 * (abs(a1) + abs(b1)),
        k2 * (abs(a2) + abs(b2)), k3 * (abs(a3) + abs(b3)),
        k4 * (abs(a4) + abs(b4)), k5 * (abs(a5) + abs(b5)),
        k6 * (abs(a6) + abs(b6)), k7 * abs(c),
    ))
    resabs = absk * abs(scale)
    resasc = math.fsum((
        k0 * (abs(a0 - reskh) + abs(b0 - reskh)),
        k1 * (abs(a1 - reskh) + abs(b1 - reskh)),
        k2 * (abs(a2 - reskh) + abs(b2 - reskh)),
        k3 * (abs(a3 - reskh) + abs(b3 - reskh)),
        k4 * (abs(a4 - reskh) + abs(b4 - reskh)),
        k5 * (abs(a5 - reskh) + abs(b5 - reskh)),
        k6 * (abs(a6 - reskh) + abs(b6 - reskh)),
        k7 * abs(c - reskh),
    )) * abs(scale)

    err = abs(resk - resg) * abs(scale)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    floor = 50.0 * _EPS * resabs
    err = max(err, floor)
    # Where the samples change sign, |f| has a kink that resabs resolves
    # better on halves, so bisecting may lower the floor; it is fixed only
    # on a one-signed segment, where absk is |resk| bit for bit.
    fixed = floor if absk == abs(resk) else 0.0
    # bisecting cannot mend an overflow, so stop at the first
    return _finite(value, "reference value"), _finite(err, "reference value"), floor, fixed


def _units(x: float) -> int:
    """Finite ``x`` as a whole number of 2**-1074, exactly."""
    n, d = x.as_integer_ratio()  # d is a power of two, at most 2**1074
    return n << (1075 - d.bit_length())


def _check_tolerance(tol: float) -> None:
    """Raise ValueError unless :func:`reference_integral` takes ``tol``."""
    if not tol >= _MIN_TOL:  # a NaN tolerance fails here too
        raise ValueError(f"tolerance must be >= {_MIN_TOL}, got {tol}")


def reference_integral(
    f: Integrand,
    iv: Interval,
    tol: float,
    segment_limit: int = _DEFAULT_SEGMENT_LIMIT,
) -> ReferenceResult:
    """Adaptive reference integral with absolute tolerance ``tol``.

    Bisects the segment with the largest embedded error estimate until
    the summed estimate drops to ``tol`` or to the oracle's rounding
    floor, whichever comes first; ``est_abs_error`` says which, as it is
    at most ``tol`` only for the first.  Each segment's estimate is
    floored at ``50 * eps * resabs``, as in QUADPACK's ``dqk15``.  The
    oracle stops at the floor, the roundoff stop of ``dqagse``, once every
    live segment sits on its floor and the floors that bisecting cannot
    lower (those of segments whose samples keep one sign) already sum
    above ``tol``: from there no bisection reaches ``tol``.  An integral
    of ``|f|`` above about ``tol / 1.1e-14`` gets there.  The sums are
    kept exactly and the estimate is read correctly rounded, as
    :func:`math.fsum` gives it, so a bisection step costs O(log S) with
    S segments on the heap.  ``subdivisions`` reports the final segment
    count.  Raises :class:`ReferenceConvergenceError` carrying the best
    value if the segment limit is hit first, and :class:`EvaluationError`
    if the value overflows.
    """
    _check_tolerance(tol)

    try:
        # heap entries: (-error, insertion counter, lo, hi, value, then the
        # error and fixed floor in units of 2**-1074, and whether the error
        # is above its floor); every finite float is a whole number of those
        # units, so ``exact`` and ``fixed`` are the heap's sums of them
        # without rounding, and ``above`` counts the errors above their
        # floors.  A fixed floor is the floor or 0.0, so its units are the
        # floor's or 0, and the error's where the error is the floor.
        heap: list[tuple] = []
        exact = fixed = above = counter = 0
        segments = ((iv.a, iv.b),)
        while True:
            for a, b in segments:
                v, err, floor, fixed_floor = _kronrod_segment(f, a, b)
                e, up = _units(err), err > floor
                fx = 0 if not fixed_floor else _units(floor) if up else e
                heapq.heappush(heap, (-err, counter, a, b, v, e, fx, up))
                exact, fixed, above = exact + e, fixed + fx, above + up
                counter += 1
            total_err = exact / _UNIT  # correctly rounded; OverflowError past the max
            # fixed <= exact cannot overflow, and rounded to nearest it is
            # above tol only if it is so exactly
            if total_err <= tol or not above and fixed / _UNIT > tol:
                break
            if len(heap) >= segment_limit:
                raise ReferenceConvergenceError(
                    f"estimated error {total_err:.3e} still above tolerance {tol:.3e} "
                    f"after {len(heap)} segments",
                    best_value=math.fsum(entry[4] for entry in heap),
                    est_abs_error=total_err,
                )
            _, _, lo, hi, _, e, fx, up = heapq.heappop(heap)
            exact, fixed, above = exact - e, fixed - fx, above - up
            mid = lo + 0.5 * (hi - lo)
            segments = ((lo, mid), (mid, hi))
        value = math.fsum(entry[4] for entry in heap)
    except (OverflowError, ValueError):  # an overflowing sum of values or errors
        value = math.nan
    _finite(value, "reference value")
    return ReferenceResult(value=value, est_abs_error=total_err, subdivisions=len(heap))


class ConvergenceRow(NamedTuple):
    n_pairs: int
    h: float
    approx: float
    abs_error: float


class ConvergenceTable(NamedTuple):
    """Grid-refinement errors for one rule and the fitted order.

    ``fitted_order`` is the least-squares slope of log(abs_error) against
    log(h), restricted to ``fit_window``: rows whose error is above the
    rounding floor and below the pre-asymptotic ceiling.  It is ``None``
    when fewer than two rows qualify.
    """

    rule_id: Rule
    reference_value: float
    rows: tuple[ConvergenceRow, ...]
    fitted_order: float | None
    fit_window: tuple[int, ...]


def _fit_order(rows: tuple[ConvergenceRow, ...]) -> tuple[float | None, tuple[int, ...]]:
    window = tuple(
        i
        for i, row in enumerate(rows)
        if ROUNDING_FLOOR < row.abs_error <= PREASYMPTOTIC_CEILING
    )
    if len(window) < 2:
        return None, window
    # Closed-form least-squares slope with correctly rounded sums.
    log_h = [math.log(rows[i].h) for i in window]
    log_e = [math.log(rows[i].abs_error) for i in window]
    mean_h = math.fsum(log_h) / len(window)
    mean_e = math.fsum(log_e) / len(window)
    du = [u - mean_h for u in log_h]
    sxy = math.fsum(d * (v - mean_e) for d, v in zip(du, log_e))
    sxx = math.fsum(d * d for d in du)
    return sxy / sxx, window


def convergence_study(
    rule_id: Rule, f: Integrand, iv: Interval, n_list: list[int]
) -> ConvergenceTable:
    """Run a composite rule over grids with the given pair counts.

    ``n_list`` must be strictly increasing, so the spacings are strictly
    decreasing.  Errors are absolute, against the reference oracle at
    tolerance 1e-13 or at its rounding floor, whichever comes first (see
    :func:`reference_integral`; its ``est_abs_error`` says which).  Each
    row's value is bitwise the composite rule's.  The corrected rule's
    derivative corrections telescope on every grid, so a study evaluates
    ``f'`` once per endpoint, whatever the grid count, and ``f^(5)`` never,
    as no row keeps the leading-error estimate.
    """
    return _study(rule_id, f, iv, n_list, None)


def _study(
    rule_id: Rule, f: Integrand, iv: Interval, n_list: list[int], reference: float | None
) -> ConvergenceTable:
    """:func:`convergence_study` against ``reference``; ``None`` runs the oracle."""
    if rule_id not in COMPOSITE_RULES:
        raise ValueError(f"no composite form for rule {rule_id!r}")
    if not n_list:
        raise ValueError("n_list must not be empty")
    if any(n2 <= n1 for n1, n2 in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must be strictly increasing, got {n_list}")

    if reference is None:
        reference = reference_integral(f, iv, tol=1e-13).value
    # f'(b) - f'(a) is the same on every grid: taken once, after the first pair sum
    slope = functools.cache(lambda: _endpoint_slope(f, iv))
    what = f"{rule_id.value} rule value"
    rows = []
    for n in n_list:
        grid = UniformGrid(iv, n)
        approx = _finite(_rule_value(f, grid, rule_id, slope), what)
        rows.append(
            ConvergenceRow(
                n_pairs=n, h=grid.h, approx=approx, abs_error=abs(approx - reference)
            )
        )
    fitted, window = _fit_order(tuple(rows))
    return ConvergenceTable(
        rule_id=rule_id,
        reference_value=reference,
        rows=tuple(rows),
        fitted_order=fitted,
        fit_window=window,
    )


class RuleComparison(NamedTuple):
    """Per-grid errors of Simpson vs the corrected rule on identical grids."""

    simpson: ConvergenceTable
    modified: ConvergenceTable
    error_ratios: tuple[float, ...]  # Simpson error / corrected-rule error


def compare_rules(f: Integrand, iv: Interval, n_list: list[int]) -> RuleComparison:
    """Run both composite rules on identical grids and report error ratios.

    Both studies measure against one run of the reference oracle.  The
    whole comparison evaluates ``f'`` exactly twice, once per endpoint, and
    ``f^(5)`` never (see :func:`convergence_study`).
    """
    simpson = _study(Rule.SIMPSON, f, iv, n_list, None)
    modified = _study(Rule.MODIFIED_SIMPSON, f, iv, n_list, simpson.reference_value)
    ratios = []
    for rs, rm in zip(simpson.rows, modified.rows):
        if rm.abs_error == 0.0:
            ratios.append(math.inf if rs.abs_error > 0.0 else math.nan)
        else:
            ratios.append(rs.abs_error / rm.abs_error)
    return RuleComparison(
        simpson=simpson, modified=modified, error_ratios=tuple(ratios)
    )
