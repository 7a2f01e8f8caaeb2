"""Error bounds for the corrected rules.

Three families are computed from a derivative range [gamma, Gamma] and
the endpoint secant of the next-lower derivative:

- ``range_bound``     -- (Gamma - gamma)/2 * C_k, sharp via the kernel L1 norm;
- ``lower_gap_bound`` -- (S - gamma) * B_k, via the kernel sup norm;
- ``upper_gap_bound`` -- (Gamma - S) * B_k;

plus the classic Peano bound C_k * max(|gamma|, |Gamma|) for comparison.
``range_bound`` never exceeds the classic bound and equals it only for
ranges symmetric about zero.  :func:`composite_bounds` applies the family
over a composite grid, k = 2..5; order 6 has the sup-norm-only
:func:`composite_bound_k6`.

Ranges may be user-supplied (rigorous) or sampled by
:func:`estimate_derivative_range`, in which case every report derived
from them is flagged non-rigorous.
"""

from __future__ import annotations

import math
from typing import Literal, NamedTuple

from .errors import EvaluationError, InvalidRangeError, SlopeInconsistencyError
from .integrand import MAX_DERIVATIVE_ORDER, Integrand, Interval, _make
from .kernels import scaled_constants
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


def _check_sup(s: float) -> None:
    if not s >= 0:  # a NaN norm fails here too
        raise ValueError(f"sup norm must be non-negative, got {s}")


def _check_positive(value: float, what: str) -> None:
    if not value > 0:  # a NaN fails here too
        raise ValueError(f"{what} must be positive, got {value}")


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
        if not 1 <= rng.k <= MAX_DERIVATIVE_ORDER:
            raise ValueError(
                f"derivative range order must be in 1..{MAX_DERIVATIVE_ORDER}, got {rng.k}")
        if math.isnan(rng.lower) or math.isnan(rng.upper):
            raise InvalidRangeError(f"range endpoint is NaN: [{rng.lower}, {rng.upper}]")
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


def composite_bounds(
    k: int, rng: DerivativeRange, slope: SecantSlope, h: float, length: float
) -> BoundReport:
    """Bounds for the composite rule over an interval of width ``length``, k = 2..5.

    The range and secant refer to the whole interval.  ``length`` must be
    an even multiple of ``h`` (the grid pattern).  Each width-2h panel gets
    the unit bounds rescaled to ``D_k h^(k+1)`` and ``E_k h^(k+1)``, and the
    result is that panel report times the pair count.
    """
    _check_positive(h, "grid spacing")
    _check_positive(length, "interval length")
    n = length / (2.0 * h)
    if not math.isfinite(n) or abs(n - round(n)) > 1e-9 * max(1.0, n) or round(n) < 1:
        raise ValueError(
            f"length {length} is not an even multiple of the spacing h = {h}"
        )
    kc = scaled_constants(k)
    hk1 = _pow(h, k + 1)
    lower_gap, upper_gap = _check_pair(k, rng, slope)
    l1_scale, sup_scale = kc.d * hk1, kc.e * hk1
    # one panel's range, lower-gap, upper-gap and classic bounds
    panel = (0.5 * rng.width * l1_scale, lower_gap * sup_scale, upper_gap * sup_scale,
             rng.sup_abs * l1_scale)
    return BoundReport(k, *(n * bound for bound in panel), n * min(panel), rng.rigorous)


def composite_bound_k6(sup_f6: float, h: float, length: float) -> float:
    """Composite order-6 bound: ``D_6/2 * ||f^(6)|| * h^6 * (b - a)``."""
    _check_sup(sup_f6)
    _check_positive(h, "grid spacing")
    _check_positive(length, "interval length")
    return _finite(0.5 * scaled_constants(6).d * sup_f6 * _pow(h, 6) * length, "error bound")


def midpoint_bounds(m2: float, m4: float, length: float) -> tuple[float, float, float]:
    """Bounds for the midpoint rules on one interval of width ``length``.

    Returns ``(classic, corrected, corrected_h4)``:
    the classic midpoint bound ``(b-a)^3 M_2 / 24``, the corrected-rule
    bound ``(b-a)^3 M_2 / (18 sqrt 3)`` (always the smaller of the two),
    and the corrected-rule fourth-derivative bound
    ``7 M_4 (b-a)^5 / 5760``.
    """
    _check_sup(m2)
    _check_sup(m4)
    _check_positive(length, "interval length")
    w3 = _pow(length, 3)
    classic = w3 * m2 / 24.0
    corrected = w3 * m2 / (18.0 * math.sqrt(3.0))
    corrected_h4 = 7.0 * m4 * _pow(length, 5) / 5760.0
    return classic, corrected, corrected_h4


def simpson_classic_bound(sup_f4: float, h: float, length: float) -> float:
    """Textbook composite-Simpson bound ``||f^(4)|| h^4 (b - a) / 180``."""
    _check_sup(sup_f4)
    _check_positive(h, "grid spacing")
    _check_positive(length, "interval length")
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


def _check_sampling(k: int, n_samples: int, safety: float) -> None:
    """Raise ValueError unless :func:`estimate_derivative_range` takes these."""
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order must be an integer in 1..{MAX_DERIVATIVE_ORDER}, "
                         f"got {k!r}")
    if not isinstance(n_samples, int) or isinstance(n_samples, bool):
        raise ValueError(f"sample count must be an integer, got {n_samples!r}")
    if n_samples < 8:
        raise ValueError(f"need at least 8 samples, got {n_samples}")
    if not isinstance(safety, (int, float)) or isinstance(safety, bool):
        raise ValueError(f"safety factor must be a number >= 1, got {safety!r}")
    if not safety >= 1.0:  # a NaN factor fails here too
        raise ValueError(f"safety factor must be >= 1, got {safety}")
    if safety == math.inf:
        raise ValueError("safety factor must be finite, got inf")


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

    An expression integrand is sampled through its compiled order-k jet
    (``f._fast.jet(k)``, fetched once), one call per abscissa, unchecked.
    Where a value raises or is not finite, ``f.derivative`` replays that
    one point and alone decides the error, so the first failing abscissa
    and its message are those of the checked path.
    """
    _check_sampling(k, n_samples, safety)

    checked, isfinite, nan = f.derivative, math.isfinite, math.nan
    jet = None if f._fast is None else f._fast.jet(k)
    scale = math.factorial(k)

    def dk(x: float) -> float:
        """f^(k)(x) by the replay rule; the sample loop below inlines it."""
        v = nan
        if jet is not None:
            try:
                v = jet(x)[k] * scale
            except Exception:
                pass
        return v if isfinite(v) else checked(k, x)

    # Chebyshev extrema points, which cluster near the endpoints and hit
    # them, in increasing x: a, then i = last - 1 .. 1, then b (i = 0).
    # Each sample is judged once the next is known, so the first running
    # min and max keep their neighbouring samples, the polish brackets; an
    # end sample is its own outer neighbour.
    a, b = iv.a, iv.b
    mid, rad, last, cos, pi = 0.5 * (a + b), 0.5 * iv.width, n_samples - 1, math.cos, math.pi
    xb, vb = xh, vh = a, dk(a)  # the sample before, and the one judged next
    low, high = math.inf, -math.inf
    for i in range(last - 1, -1, -1):
        x = mid + rad * cos(pi * i / last) if i else b
        v = nan
        if jet is not None:
            try:
                v = jet(x)[k] * scale
            except Exception:
                pass
        if not isfinite(v):
            v = checked(k, x)
        if vh < low:
            low, low_bracket = vh, (xb, x, vb, v)
        if vh > high:
            high, high_bracket = vh, (xb, x, vb, v)
        xb, vb, xh, vh = xh, vh, x, v
    if vh < low:
        low_bracket = xb, xh, vb, vh
    if vh > high:
        high_bracket = xb, xh, vb, vh

    tol = 1e-6 * max(iv.width, 1.0)
    lo = _golden_polish(dk, *low_bracket, minimize=True, tol=tol)
    hi = _golden_polish(dk, *high_bracket, minimize=False, tol=tol)
    lo, hi = min(lo, hi), max(lo, hi)

    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * safety
    if half == math.inf:  # an infinite centre would give inf - inf = NaN
        centre = 0.0
    return DerivativeRange(
        k=k, lower=centre - half, upper=centre + half, provenance="sampled-estimate"
    )
