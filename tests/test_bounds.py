import math
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import CORPUS, EDGE_LIMITS, EDGE_TREES, edge_text, outcome
from msquad import bounds
from msquad.bounds import (
    DerivativeRange,
    SecantSlope,
    composite_bound_k6,
    composite_bounds,
    estimate_derivative_range,
    midpoint_bounds,
    panel_bound_k6,
    panel_bounds,
    secant_slope,
    simpson_classic_bound,
    unit_bounds,
)
from msquad.errors import EvaluationError, InvalidRangeError, SlopeInconsistencyError
from msquad.integrand import Integrand, Interval, UniformGrid
from msquad.jets import expression_integrand
from msquad.kernels import kernel_abs_integral, scaled_constants
from msquad.reference import reference_integral
from msquad.rules import composite_modified_simpson, modified_simpson_panel

UNIT = Interval(0.0, 1.0)
EXP = Integrand.from_callables(math.exp, *[math.exp] * 6)


def true_panel_error(f: Integrand, iv: Interval) -> float:
    ref = reference_integral(f, iv, tol=1e-13).value
    return ref - modified_simpson_panel(f, iv)


# -- unit-interval bounds --------------------------------------------------------


def test_unit_bounds_vanish_for_constant_derivative():
    report = unit_bounds(4, DerivativeRange(4, 2.5, 2.5), SecantSlope(3, 2.5))
    assert report.range_bound == 0.0
    assert report.lower_gap_bound == 0.0
    assert report.upper_gap_bound == 0.0
    assert report.best == 0.0
    assert report.rigorous


def test_unit_bounds_exp_plugin():
    rng = DerivativeRange(2, 1.0, math.e)
    slope = SecantSlope(1, math.e - 1.0)
    report = unit_bounds(2, rng, slope)
    expected = (math.e - 1.0) / 2.0 * kernel_abs_integral(2)
    assert report.range_bound == pytest.approx(expected, rel=1e-15)
    assert report.range_bound == pytest.approx(7.028e-3, rel=1e-3)
    err = abs(true_panel_error(EXP, UNIT))
    assert err <= report.range_bound
    assert err <= report.lower_gap_bound
    assert err <= report.upper_gap_bound
    assert report.peano_classic == pytest.approx(math.e * kernel_abs_integral(2), rel=1e-15)
    assert report.range_bound <= report.peano_classic


def test_unit_bounds_sin_plugin():
    sin_f = CORPUS[2].integrand()
    rng = DerivativeRange(5, math.cos(1.0), 1.0)
    slope = SecantSlope(4, math.sin(1.0))
    report = unit_bounds(5, rng, slope)
    expected = (1.0 - math.cos(1.0)) / 2.0 / 115200.0
    assert report.range_bound == pytest.approx(expected, rel=1e-15)
    assert abs(true_panel_error(sin_f, UNIT)) <= report.best


def test_unit_bounds_validation():
    with pytest.raises(InvalidRangeError):
        DerivativeRange(2, 2.0, 1.0)
    with pytest.raises(SlopeInconsistencyError):
        unit_bounds(2, DerivativeRange(2, 0.0, 1.0), SecantSlope(1, 5.0))
    with pytest.raises(ValueError):
        unit_bounds(6, DerivativeRange(6, 0.0, 1.0), SecantSlope(5, 0.5))
    with pytest.raises(ValueError):
        unit_bounds(3, DerivativeRange(3, 0.0, 1.0), SecantSlope(1, 0.5))


def test_ulp_noise_on_tight_ranges_is_clamped():
    noisy = 1.0 + 2.0 * math.ulp(1.0)
    report = unit_bounds(4, DerivativeRange(4, 1.0, 1.0), SecantSlope(3, noisy))
    assert report.upper_gap_bound == 0.0
    assert 0.0 <= report.lower_gap_bound <= 1e-15


# -- panel and composite bounds ---------------------------------------------------


def test_panel_of_width_one_collapses_to_unit_bounds():
    kc = scaled_constants(4)
    assert kc.d * 0.5**5 == kernel_abs_integral(4)
    rng = DerivativeRange(4, -1.0, 2.0)
    slope = SecantSlope(3, 0.25)
    assert panel_bounds(4, rng, slope, 0.5) == unit_bounds(4, rng, slope)


def test_panel_bounds_exp_validity():
    iv = Interval(-1.0, 1.0)
    rng = DerivativeRange(2, 1.0 / math.e, math.e)
    slope = secant_slope(EXP, 1, iv)
    report = panel_bounds(2, rng, slope, 1.0)
    expected = 0.5 * (math.e - 1.0 / math.e) * scaled_constants(2).d
    assert report.range_bound == pytest.approx(expected, rel=1e-15)
    err = abs(true_panel_error(EXP, iv))
    assert err == pytest.approx(2.206e-4, rel=1e-3)
    assert err <= report.best


def test_panel_bounds_constant_fifth_derivative():
    report = panel_bounds(5, DerivativeRange(5, 3.0, 3.0), SecantSlope(4, 3.0), 0.7)
    assert report.range_bound == 0.0 and report.best == 0.0


def test_panel_bound_k6_with_tight_monomial():
    bound = panel_bound_k6(720.0, 1.0)
    true = 16.0 / 105.0  # exact panel error of x^6 on [-1, 1]
    assert bound == pytest.approx(true, rel=1e-15)
    assert bound >= true * (1.0 - 1e-15)
    assert panel_bound_k6(0.0, 2.0) == 0.0
    assert panel_bound_k6(math.e, 1.0) == pytest.approx(math.e / 4725.0, rel=1e-15)
    assert panel_bound_k6(math.e, 1.0) >= 2.206e-4
    with pytest.raises(ValueError):
        panel_bound_k6(-1.0, 1.0)


def test_composite_coefficient_matches_quarter_form():
    gamma, upper = -0.75, 2.0
    rng = DerivativeRange(4, gamma, upper)
    slope = SecantSlope(3, 0.5)
    report = composite_bounds(4, rng, slope, 0.125, 2.0)
    expected = 2.0 * (upper - gamma) / 3645.0 * 0.125**4 * 2.0
    assert report.range_bound == pytest.approx(expected, rel=1e-14)


def test_composite_single_pair_reproduces_panel_bitwise():
    rng = DerivativeRange(3, -0.5, 1.5)
    slope = SecantSlope(2, 0.3)
    h = 0.3
    assert composite_bounds(3, rng, slope, h, 2.0 * h) == panel_bounds(3, rng, slope, h)


def test_composite_bounds_validity_for_gauss():
    f = CORPUS[1].integrand()
    ref = reference_integral(f, UNIT, tol=1e-13).value
    grid = UniformGrid(UNIT, 2)
    true_err = abs(ref - composite_modified_simpson(f, grid).value)
    rng = estimate_derivative_range(f, 4, UNIT, n_samples=513, safety=1.0)
    slope = secant_slope(f, 3, UNIT)
    report = composite_bounds(4, rng, slope, grid.h, UNIT.width)
    assert true_err <= report.best
    assert not report.rigorous  # sampled range propagates the flag


def test_composite_bounds_rejects_mismatched_spacing():
    rng = DerivativeRange(2, 0.0, 1.0)
    slope = SecantSlope(1, 0.5)
    with pytest.raises(ValueError):
        composite_bounds(2, rng, slope, 0.3, 1.0)


def test_composite_bound_k6_values():
    assert composite_bound_k6(1.0, 1.0, 2.0) == pytest.approx(2.0 / 9450.0, rel=1e-15)
    assert composite_bound_k6(0.0, 0.5, 1.0) == 0.0
    f = CORPUS[1].integrand()
    grid = UniformGrid(UNIT, 2)
    ref = reference_integral(f, UNIT, tol=1e-13).value
    true_err = abs(ref - composite_modified_simpson(f, grid).value)
    sup6 = max(abs(f.derivative(6, x / 512)) for x in range(513))
    assert true_err <= composite_bound_k6(sup6, grid.h, 1.0)


# -- midpoint and Simpson comparison bounds ---------------------------------------


def test_midpoint_bounds_comparison():
    classic, corrected, corrected_h4 = midpoint_bounds(1.0, 0.0, 1.0)
    assert classic == pytest.approx(1.0 / 24.0, rel=1e-15)
    assert corrected == pytest.approx(1.0 / (18.0 * math.sqrt(3.0)), rel=1e-15)
    assert corrected < classic
    assert midpoint_bounds(0.0, 0.0, 3.0) == (0.0, 0.0, 0.0)
    assert midpoint_bounds(0.0, 1.0, 1.0)[2] == pytest.approx(7.0 / 5760.0, rel=1e-15)
    with pytest.raises(ValueError):
        midpoint_bounds(-1.0, 0.0, 1.0)


def test_simpson_classic_bound_values():
    assert simpson_classic_bound(1.0, 1.0, 2.0) == pytest.approx(1.0 / 90.0, rel=1e-15)
    assert simpson_classic_bound(0.0, 1.0, 2.0) == 0.0


def test_overflowing_power_is_an_evaluation_error():
    # float ** int raises OverflowError where a product would give inf
    h = 5e59
    rng, slope = DerivativeRange(5, 0.0, 0.0), SecantSlope(4, 0.0)
    for bound in (lambda: panel_bounds(5, rng, slope, h),
                  lambda: composite_bounds(5, rng, slope, h, 2 * h),
                  lambda: panel_bound_k6(0.0, h),
                  lambda: composite_bound_k6(0.0, h, 2 * h),
                  lambda: midpoint_bounds(0.0, 0.0, 1e103),
                  lambda: midpoint_bounds(0.0, 0.0, 1e62),
                  lambda: simpson_classic_bound(0.0, 1e78, 1.0)):
        with pytest.raises(EvaluationError, match="^error bound overflows$"):
            bound()
    assert panel_bounds(4, DerivativeRange(4, 0.0, 0.0), SecantSlope(3, 0.0), h).best == 0.0


@pytest.mark.parametrize("fn", CORPUS, ids=lambda c: c.name)
def test_range_bound_beats_simpson_bound(fn):
    # the quarter-form coefficient is below the classic Simpson constant
    f = fn.integrand()
    h = 0.25
    rng = estimate_derivative_range(f, 4, UNIT, n_samples=513, safety=1.0)
    slope = secant_slope(f, 3, UNIT)
    corrected = composite_bounds(4, rng, slope, h, 1.0).range_bound
    classic = simpson_classic_bound(rng.sup_abs, h, 1.0)
    assert corrected < classic


def test_dominance_and_equality_witness():
    rng_random = random.Random(2024)
    for _ in range(50):
        lo = rng_random.uniform(-5.0, 5.0)
        hi = lo + rng_random.uniform(0.0, 5.0)
        s = rng_random.uniform(lo, hi) if hi > lo else lo
        report = unit_bounds(3, DerivativeRange(3, lo, hi), SecantSlope(2, s))
        assert report.range_bound <= report.peano_classic * (1.0 + 1e-15)
    # equality holds exactly for ranges symmetric about zero
    sym = unit_bounds(3, DerivativeRange(3, -2.0, 2.0), SecantSlope(2, 0.0))
    assert sym.range_bound == sym.peano_classic


# -- range estimator ---------------------------------------------------------------


def test_estimator_brackets_exp_second_derivative():
    rng = estimate_derivative_range(EXP, 2, UNIT)
    assert rng.provenance == "sampled-estimate"
    assert not rng.rigorous
    assert rng.lower <= 1.0 <= math.e <= rng.upper
    assert 0.8 <= rng.lower and rng.upper <= 3.0


def test_estimator_exact_with_unit_safety_on_monotone_derivative():
    rng = estimate_derivative_range(EXP, 2, UNIT, n_samples=257, safety=1.0)
    assert rng.lower == pytest.approx(1.0, abs=1e-12)
    assert rng.upper == pytest.approx(math.e, abs=1e-12)


def test_estimator_constant_collapses_to_zero_width():
    const = Integrand.from_callables(lambda x: 5.0, *([lambda x: 0.0] * 6))
    for k in (1, 3, 6):
        rng = estimate_derivative_range(const, k, UNIT)
        assert (rng.lower, rng.upper) == (0.0, 0.0)


def test_estimator_brackets_sin_fourth_derivative():
    sin_f = CORPUS[2].integrand()
    rng = estimate_derivative_range(sin_f, 4, Interval(0.0, math.pi))
    assert rng.lower <= 0.0 and rng.upper >= 1.0


@pytest.mark.parametrize("n", [8, 9, 129])
@pytest.mark.parametrize(
    "a, b", [(0.0, 1.0), (-1.0, 1.0), (4.0, 4.2), (0.1, 0.7), (1.0, 1000.0), (-3.0, 7.5)]
)
def test_estimator_samples_chebyshev_extrema(a, b, n):
    import mpmath as mp

    seen = []

    def provider(order, x):
        seen.append(x)
        return math.sin(x)

    f = Integrand(math.sin, provider, max_order=6)
    estimate_derivative_range(f, 2, Interval(a, b), n_samples=n)
    xs = seen[:n]  # the golden-section polish follows the samples
    assert all(x0 < x1 for x0, x1 in zip(xs, xs[1:]))
    assert xs[0] == a and xs[-1] == b  # exact endpoints, not mid -/+ rad
    # cancellation in mid + rad*cos near zero makes a per-point ulp count
    # meaningless, so the tolerance is in ulps of the interval's magnitude
    tol = 2 * math.ulp(max(abs(a), abs(b)))
    with mp.workdps(50):
        lo, hi = mp.mpf(a), mp.mpf(b)
        for j, x in enumerate(xs):
            exact = lo + (hi - lo) / 2 * (1 - mp.cos(mp.pi * j / (n - 1)))
            assert abs(mp.mpf(x) - exact) <= tol


@pytest.mark.parametrize("a, b", [(1e10, 1e10 + 1.0), (1e12, 1e12 + 1.0)])
def test_estimator_polish_stops_at_float_spacing(a, b):
    # the polish tolerance 1e-6 * max(width, 1) = 1e-6 is below the float
    # spacing near a (2**-19 and 2**-13), so the bracket stops shrinking
    # before reaching it
    sin_f = CORPUS[2].integrand()
    rng = estimate_derivative_range(sin_f, 3, Interval(a, b))
    samples = [-math.cos(a + (b - a) * i / 64) for i in range(65)]
    assert rng.lower <= min(samples) and max(samples) <= rng.upper
    assert -1.1 <= rng.lower and rng.upper <= 1.1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]), min_size=8, max_size=40))
def test_estimator_polishes_around_the_first_extrema(values):
    """The polish brackets are the neighbours of the first sample holding
    the minimum and of the first holding the maximum, an end sample being
    its own outer neighbour: what ``min``/``max`` over the list of all
    samples give, ties and signed zeros included."""
    xs = []

    def provider(order, x):
        xs.append(x)
        return values[len(xs) - 1]

    polished = []

    def polish(fn, lo, hi, f_lo, f_hi, minimize, tol):
        polished.append((lo, hi, f_lo, f_hi))
        return f_lo

    n = len(values)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounds, "_golden_polish", polish)
        estimate_derivative_range(Integrand(math.sin, provider, max_order=6), 2, UNIT, n)
    assert len(xs) == n

    def bracket(i):
        lo, hi = max(i - 1, 0), min(i + 1, n - 1)
        return xs[lo], xs[hi], values[lo], values[hi]

    i_min = min(range(n), key=values.__getitem__)
    i_max = max(range(n), key=values.__getitem__)
    assert polished == [bracket(i_min), bracket(i_max)]


def test_estimator_memory_is_flat_in_the_sample_count():
    """Samples stream through the running min and max: peak traced memory at
    20,001 samples is within a small constant of the peak at 2,001."""
    f = expression_integrand("x^3")
    estimate_derivative_range(f, 3, UNIT, n_samples=2001)  # compile the jet first

    def peak(n):
        tracemalloc.start()
        try:
            estimate_derivative_range(f, 3, UNIT, n_samples=n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2001), peak(20_001)
    assert large - small < 4096, (small, large)  # a list of 20,001 floats is ~640 kB


def test_estimator_validation():
    with pytest.raises(ValueError):
        estimate_derivative_range(EXP, 2, UNIT, n_samples=4)
    with pytest.raises(ValueError):
        estimate_derivative_range(EXP, 2, UNIT, safety=0.9)
    with pytest.raises(ValueError, match="got nan"):
        estimate_derivative_range(EXP, 2, UNIT, safety=math.nan)
    with pytest.raises(ValueError, match="finite"):
        estimate_derivative_range(EXP, 2, UNIT, safety=math.inf)
    with pytest.raises(ValueError):
        estimate_derivative_range(EXP, 0, UNIT)


@pytest.mark.parametrize(
    "fn, iv", [(lambda x: math.sin(3.0 * x), Interval(0.0, 3.0)), (math.exp, UNIT)],
    ids=["interior-extrema", "monotone"],
)
def test_polish_reuses_bracket_end_samples(fn, iv):
    calls = []

    def d2(x):
        calls.append(x)
        return fn(x)

    n = 129
    estimate_derivative_range(Integrand.from_callables(fn, fn, d2), 2, iv, n_samples=n)
    xs, polish = calls[:n], calls[n:]
    values = [fn(x) for x in xs]
    budget = n
    for i in (values.index(min(values)), values.index(max(values))):
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, n - 1)]
        assert lo not in polish and hi not in polish
        # two interior points, then one per step; a step keeps 1/phi of
        # the bracket until it is within the tolerance 1e-6 * max(width, 1)
        tol = 1e-6 * max(iv.width, 1.0)
        budget += 2 + math.ceil(math.log((hi - lo) / tol) / math.log((1 + math.sqrt(5.0)) / 2))
    assert len(calls) <= budget


def _range_outcome(f, k, iv):
    def ends(f):
        rng = estimate_derivative_range(f, k, iv)
        return rng.lower, rng.upper

    return outcome(ends, f)


def _sampled_and_checked(text, df_text=None):
    """The expression integrand, and the same provider behind the public
    constructor, which the estimator calls through ``f.derivative``."""
    sampled = expression_integrand(text, df_text)
    checked = Integrand(sampled._fn, sampled._derivative_fn, 6)
    assert sampled._pair_terms is not None and checked._pair_terms is None
    return sampled, checked


@settings(max_examples=150, deadline=None)
@given(EDGE_TREES, st.none() | EDGE_TREES, EDGE_LIMITS, EDGE_LIMITS, st.integers(1, 6))
def test_unchecked_sampler_matches_checked_path(tree, df_tree, a, b, k):
    assume(a < b and math.isfinite(b - a))
    df_text = None if df_tree is None else edge_text(df_tree)
    sampled, checked = _sampled_and_checked(edge_text(tree), df_text)
    iv = Interval(a, b)
    assert _range_outcome(sampled, k, iv) == _range_outcome(checked, k, iv)


def _first_polish_abscissa(pole_near):
    """Where the polish first evaluates on [0, 1] when the samples' minimum
    of f' lies at the sample nearest ``pole_near``: between two samples."""
    calls = []

    def d1(x):
        calls.append(x)
        return abs(x - pole_near)

    estimate_derivative_range(Integrand.from_callables(math.sin, d1), 1, UNIT)
    samples, polish = calls[:129], calls[129:]  # 129 samples by default
    assert polish[0] not in samples
    return polish[0]


_POLISH_POLE = _first_polish_abscissa(0.3)


@pytest.mark.parametrize(
    "text, k, iv, message, abscissa",
    [
        # f' = -1/(x-c)^2 is least at the sample nearest c, and c is the
        # first point the polish of that bracket evaluates
        (f"1/(x-{_POLISH_POLE!r})", 1, UNIT, "division by zero", _POLISH_POLE),
        # only the last sample, b, is -inf
        ("1/x", 1, Interval(-1.0, 1e-160), "derivative of order 1 is non-finite", 1e-160),
        # the first sample, a, raises
        ("log(x)", 2, UNIT, "log of non-positive value 0.0", 0.0),
    ],
    ids=["pole-reached-by-polish", "inf-at-last-sample", "raises-at-first-sample"],
)
def test_unchecked_sampler_replays_a_failure(text, k, iv, message, abscissa):
    sampled, checked = _sampled_and_checked(text)
    got = _range_outcome(sampled, k, iv)
    assert got == _range_outcome(checked, k, iv)
    assert got == (EvaluationError, f"{message} (at x = {abscissa!r})", repr(abscissa))


@pytest.mark.parametrize("fn", CORPUS, ids=lambda c: c.name)
def test_mean_value_sanity(fn):
    f = fn.integrand()
    for k in (2, 3, 4, 5):
        rng = estimate_derivative_range(f, k, UNIT, n_samples=257)
        s = secant_slope(f, k - 1, UNIT)
        assert rng.lower <= s.value <= rng.upper
