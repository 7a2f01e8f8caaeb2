"""Error bounds for the corrected rules.

Three families are computed from a derivative range [gamma, Gamma] and
the endpoint secant of the next-lower derivative:

- ``range_bound``     -- (Gamma - gamma)/2 * C_k, sharp via the kernel L1 norm;
- ``lower_gap_bound`` -- (S - gamma) * B_k, via the kernel sup norm;
- ``upper_gap_bound`` -- (Gamma - S) * B_k;

plus the classic Peano bound C_k * max(|gamma|, |Gamma|) for comparison.
``range_bound`` never exceeds the classic bound and equals it only for
ranges symmetric about zero.  Panel and composite variants rescale by
powers of the grid spacing; order 6 has a sup-norm-only bound.

Ranges may be user-supplied (rigorous) or sampled by
:func:`estimate_derivative_range`, in which case every report derived
from them is flagged non-rigorous.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterator, Literal, NamedTuple

from .errors import EvaluationError, InvalidRangeError, SlopeInconsistencyError
from .integrand import Integrand, Interval, _make
from .kernels import kernel_abs_integral, kernel_max_abs, scaled_constants
from .rules import _finite

# Slack for the mean-value consistency check: the secant is a difference
# of floats, so it may poke out of a tight range by a few ulps.
_CONSISTENCY_RTOL = 1e-9

Provenance = Literal["user-supplied", "sampled-estimate"]


def _pow(base: float, n: int) -> float:
    """``base ** n`` for a bound; float ``**`` raises OverflowError, not inf."""
    try:
        return base**n
    except OverflowError:
        raise EvaluationError("error bound overflows") from None


class _RangeFields(NamedTuple):
    k: int
    lower: float
    upper: float
    provenance: Provenance = "user-supplied"


class DerivativeRange(_RangeFields):
    """Bracket [lower, upper] for f^(k) over the interval of interest."""

    __slots__ = ()
    _make = classmethod(_make)

    def __new__(cls, *fields, **named) -> DerivativeRange:
        rng = super().__new__(cls, *fields, **named)
        # Orders 2..5 feed the kernel bounds and 6 the sup-norm bound, but
        # the sampling estimator is useful down to order 1.
        if not 1 <= rng.k <= 6:
            raise ValueError(f"derivative range order must be in 1..6, got {rng.k}")
        if rng.lower > rng.upper:
            raise InvalidRangeError(
                f"lower bound {rng.lower} exceeds upper bound {rng.upper}"
            )
        return rng

    @property
    def rigorous(self) -> bool:
        return self.provenance == "user-supplied"

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def sup_abs(self) -> float:
        return max(abs(self.lower), abs(self.upper))


class SecantSlope(NamedTuple):
    """Endpoint secant of f^(k): the mean value of f^(k+1).

    On the unit interval this is the plain difference
    ``f^(k)(1) - f^(k)(0)``; on a general interval the divided
    difference ``(f^(k)(b) - f^(k)(a)) / (b - a)``.
    """

    k: int
    value: float


def secant_slope(f: Integrand, k: int, iv: Interval) -> SecantSlope:
    """Divided difference of f^(k) over ``iv`` (plain difference on [0, 1])."""
    delta = f.derivative(k, iv.b) - f.derivative(k, iv.a)
    return SecantSlope(k=k, value=delta / iv.width)


class _ReportFields(NamedTuple):
    k: int
    range_bound: float
    lower_gap_bound: float
    upper_gap_bound: float
    peano_classic: float
    best: float
    rigorous: bool


class BoundReport(_ReportFields):
    """The bound family for one derivative order, plus their minimum."""

    __slots__ = ()
    _make = classmethod(_make)

    def __new__(cls, *fields, **named) -> BoundReport:
        report = super().__new__(cls, *fields, **named)
        for bound in (report.range_bound, report.lower_gap_bound, report.upper_gap_bound,
                      report.peano_classic):
            _finite(bound, "error bound")
        return report


def _check_pair(k: int, rng: DerivativeRange, slope: SecantSlope) -> tuple[float, float]:
    """Validate range/slope agreement and return the clamped gaps.

    Returns ``(S - gamma, Gamma - S)`` with tiny negative values (ulp
    noise on tight ranges) clamped to zero; genuinely inconsistent
    slopes raise.
    """
    if not 2 <= k <= 5:
        raise ValueError(f"bound order must be in 2..5, got {k}")
    if rng.k != k:
        raise ValueError(f"range is for order {rng.k}, bounds requested for order {k}")
    if slope.k != k - 1:
        raise ValueError(
            f"secant must be of order {k - 1} for order-{k} bounds, got {slope.k}"
        )
    s = slope.value
    tol = _CONSISTENCY_RTOL * max(1.0, abs(rng.lower), abs(rng.upper), abs(s))
    if s < rng.lower - tol or s > rng.upper + tol:
        raise SlopeInconsistencyError(
            f"secant {s} lies outside the derivative range "
            f"[{rng.lower}, {rng.upper}]"
        )
    return max(0.0, s - rng.lower), max(0.0, rng.upper - s)


def _report(
    k: int,
    rng: DerivativeRange,
    slope: SecantSlope,
    l1_scale: float,
    sup_scale: float,
) -> BoundReport:
    lower_gap, upper_gap = _check_pair(k, rng, slope)
    range_bound = 0.5 * rng.width * l1_scale
    lower_gap_bound = lower_gap * sup_scale
    upper_gap_bound = upper_gap * sup_scale
    peano_classic = rng.sup_abs * l1_scale
    return BoundReport(
        k=k,
        range_bound=range_bound,
        lower_gap_bound=lower_gap_bound,
        upper_gap_bound=upper_gap_bound,
        peano_classic=peano_classic,
        best=min(range_bound, lower_gap_bound, upper_gap_bound, peano_classic),
        rigorous=rng.rigorous,
    )


def unit_bounds(k: int, rng: DerivativeRange, slope: SecantSlope) -> BoundReport:
    """Bounds for the rule error on the unit interval, k = 2..5."""
    return _report(k, rng, slope, kernel_abs_integral(k), kernel_max_abs(k))


def panel_bounds(k: int, rng: DerivativeRange, slope: SecantSlope, h: float) -> BoundReport:
    """Bounds for a single width-2h panel, k = 2..5.

    The unit constants rescale to ``D_k h^(k+1)`` and ``E_k h^(k+1)``;
    a panel of width 1 (h = 1/2) collapses back to the unit bounds.
    """
    if not h > 0:
        raise ValueError(f"grid spacing must be positive, got {h}")
    kc = scaled_constants(k)
    hk1 = _pow(h, k + 1)
    assert kc.e is not None
    return _report(k, rng, slope, kc.d * hk1, kc.e * hk1)


def composite_bounds(
    k: int, rng: DerivativeRange, slope: SecantSlope, h: float, length: float
) -> BoundReport:
    """Bounds for the composite rule over an interval of width ``length``.

    The range and secant refer to the whole interval.  ``length`` must be
    an even multiple of ``h`` (the grid pattern); the result is the panel
    report scaled by the pair count, so a one-pair composite reproduces
    :func:`panel_bounds` bitwise.
    """
    if not h > 0:
        raise ValueError(f"grid spacing must be positive, got {h}")
    if not length > 0:
        raise ValueError(f"interval length must be positive, got {length}")
    n = length / (2.0 * h)
    if abs(n - round(n)) > 1e-9 * max(1.0, n) or round(n) < 1:
        raise ValueError(
            f"length {length} is not an even multiple of the spacing h = {h}"
        )
    per_panel = panel_bounds(k, rng, slope, h)
    return BoundReport(
        k=k,
        range_bound=n * per_panel.range_bound,
        lower_gap_bound=n * per_panel.lower_gap_bound,
        upper_gap_bound=n * per_panel.upper_gap_bound,
        peano_classic=n * per_panel.peano_classic,
        best=n * per_panel.best,
        rigorous=per_panel.rigorous,
    )


def panel_bound_k6(sup_f6: float, h: float) -> float:
    """Sup-norm panel bound for order 6: ``D_6 * ||f^(6)|| * h^7``."""
    if sup_f6 < 0:
        raise ValueError(f"sup norm must be non-negative, got {sup_f6}")
    if not h > 0:
        raise ValueError(f"grid spacing must be positive, got {h}")
    return scaled_constants(6).d * sup_f6 * _pow(h, 7)


def composite_bound_k6(sup_f6: float, h: float, length: float) -> float:
    """Composite order-6 bound: ``D_6/2 * ||f^(6)|| * h^6 * (b - a)``."""
    if sup_f6 < 0:
        raise ValueError(f"sup norm must be non-negative, got {sup_f6}")
    if not h > 0:
        raise ValueError(f"grid spacing must be positive, got {h}")
    if not length > 0:
        raise ValueError(f"interval length must be positive, got {length}")
    return _finite(0.5 * scaled_constants(6).d * sup_f6 * _pow(h, 6) * length, "error bound")


def midpoint_bounds(m2: float, m4: float, length: float) -> tuple[float, float, float]:
    """Bounds for the midpoint rules on one interval of width ``length``.

    Returns ``(classic, corrected, corrected_h4)``:
    the classic midpoint bound ``(b-a)^3 M_2 / 24``, the corrected-rule
    bound ``(b-a)^3 M_2 / (18 sqrt 3)`` (always the smaller of the two),
    and the corrected-rule fourth-derivative bound
    ``7 M_4 (b-a)^5 / 5760``.
    """
    if m2 < 0 or m4 < 0:
        raise ValueError("derivative sup norms must be non-negative")
    w3 = _pow(length, 3)
    classic = w3 * m2 / 24.0
    corrected = w3 * m2 / (18.0 * math.sqrt(3.0))
    corrected_h4 = 7.0 * m4 * _pow(length, 5) / 5760.0
    return classic, corrected, corrected_h4


def simpson_classic_bound(sup_f4: float, h: float, length: float) -> float:
    """Textbook composite-Simpson bound ``||f^(4)|| h^4 (b - a) / 180``."""
    if sup_f4 < 0:
        raise ValueError(f"sup norm must be non-negative, got {sup_f4}")
    return sup_f4 * _pow(h, 4) * length / 180.0


def _golden_polish(
    fn, lo: float, hi: float, f_lo: float, f_hi: float, *, minimize: bool, tol: float
) -> float:
    """Golden-section extremum of ``fn`` on [lo, hi]; returns the extreme value.

    ``f_lo`` and ``f_hi`` are ``fn`` at the bracket ends, already sampled.
    They participate, so monotone sections resolve to the exact endpoint
    sample.  The search stops once the bracket is within ``tol``, or once
    the float spacing keeps a step from shrinking it: the loop state then
    repeats, and the search stops at the first repeat.
    """
    sign = 1.0 if minimize else -1.0
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = sign * fn(c), sign * fn(d)
    # Loop states after steps that left the bracket as it was; fc and fd
    # are fn at c and d, so (a, b, c, d) is the whole state.
    seen = set()
    width = math.inf
    while b - a > tol:
        if b - a == width:
            if (a, b, c, d) in seen:
                break
            seen.add((a, b, c, d))
        width = b - a
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = sign * fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = sign * fn(d)
    best = min(fc, fd, sign * f_lo, sign * f_hi)
    return sign * best


def estimate_derivative_range(
    f: Integrand,
    k: int,
    iv: Interval,
    n_samples: int = 129,
    safety: float = 1.05,
) -> DerivativeRange:
    """Sampled estimate of the range of f^(k) over ``iv``.

    Samples at Chebyshev-distributed points (endpoints included), polishes
    the running min and max by golden-section search on the neighbouring
    sample brackets, then inflates the bracket about its midpoint by
    ``safety``.  The result is flagged ``sampled-estimate``: it is not a
    rigorous enclosure.  Samples are streamed, keeping only the first
    running min and max and their neighbours, so memory does not grow
    with ``n_samples``.

    The polish stops once its bracket is within ``1e-6 * max(width, 1)``.
    Near a smooth interior extremum x* the value error is quadratic in the
    position error, about ``|f^(k+2)(x*)| / 2 * (1e-6 * width)^2``, far
    below what the ``safety`` inflation adds, so a tighter stop buys
    nothing; where the extremum is a bracket end, its sample is the value.

    An expression integrand (``f._pair_terms`` set) is sampled through its
    compiled derivative provider unchecked.  Where a value raises or is
    not finite, ``f.derivative`` replays that one point and alone decides
    the error, so the first failing abscissa and its message are those of
    the checked path.
    """
    if not 1 <= k <= 6:
        raise ValueError(f"derivative order must be in 1..6, got {k}")
    if n_samples < 8:
        raise ValueError(f"need at least 8 samples, got {n_samples}")
    if not safety >= 1.0:  # a NaN factor fails here too
        raise ValueError(f"safety factor must be >= 1, got {safety}")
    if safety == math.inf:
        raise ValueError("safety factor must be finite, got inf")

    checked = f.derivative
    if f._pair_terms is None:

        def dk(x: float) -> float:
            return checked(k, x)

    else:
        provider = f._derivative_fn

        def dk(x: float) -> float:
            try:
                value = provider(k, x)
            except (EvaluationError, ArithmeticError, ValueError):  # what checked maps
                return checked(k, x)
            return value if math.isfinite(value) else checked(k, x)

    mid = 0.5 * (iv.a + iv.b)
    rad = 0.5 * iv.width
    last = n_samples - 1

    def samples() -> Iterator[tuple[float, float]]:
        """(x, f^(k)(x)) at Chebyshev extrema points, which cluster near the
        endpoints and hit them, in increasing x."""
        yield iv.a, dk(iv.a)
        for i in range(last - 1, 0, -1):
            x = mid + rad * math.cos(math.pi * i / last)
            yield x, dk(x)
        yield iv.b, dk(iv.b)

    # The first running min and max, each with its neighbouring samples;
    # an end sample is its own outer neighbour.
    points = samples()
    before = here = next(points)
    low = high = None
    for after in chain(points, [None]):
        after = after or here
        if low is None or here[1] < low[1][1]:
            low = before, here, after
        if high is None or here[1] > high[1][1]:
            high = before, here, after
        before, here = here, after

    tol = 1e-6 * max(iv.width, 1.0)

    def bracket(best: tuple) -> tuple[float, float, float, float]:
        (x_lo, v_lo), _, (x_hi, v_hi) = best
        return x_lo, x_hi, v_lo, v_hi

    lo = _golden_polish(dk, *bracket(low), minimize=True, tol=tol)
    hi = _golden_polish(dk, *bracket(high), minimize=False, tol=tol)
    lo, hi = min(lo, hi), max(lo, hi)

    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * safety
    return DerivativeRange(
        k=k, lower=centre - half, upper=centre + half, provenance="sampled-estimate"
    )
