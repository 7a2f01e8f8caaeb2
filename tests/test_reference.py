import io
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import msquad.reference
from helpers import (
    CORPUS,
    EDGE_LIMITS,
    EDGE_TREES,
    dqk15_reference,
    edge_text,
    outcome,
    poly_integrand,
    ulp_distance,
)
from msquad.cli import run
from msquad.errors import EvaluationError, ReferenceConvergenceError
from msquad.expressions import compile_expression, parse
from msquad.integrand import Integrand, Interval
from msquad.jets import expression_integrand
from msquad.reference import (
    _DEFAULT_SEGMENT_LIMIT,
    _WG,
    _WGK,
    _XGK,
    ConvergenceRow,
    _fit_order,
    _kronrod_segment,
    compare_rules,
    convergence_study,
    reference_integral,
)
from msquad.rules import Rule

UNIT = Interval(0.0, 1.0)
SYM = Interval(-1.0, 1.0)
EXP = Integrand.from_callables(math.exp, *[math.exp] * 6)
GAUSS = CORPUS[1].integrand()


def test_exp_against_closed_form():
    res = reference_integral(EXP, SYM, tol=1e-12)
    truth = math.e - 1.0 / math.e
    assert abs(res.value - truth) <= 1e-12
    assert res.est_abs_error <= 1e-12
    assert res.subdivisions >= 1


def test_erf_integral_against_stdlib():
    res = reference_integral(GAUSS, UNIT, tol=1e-12)
    truth = math.sqrt(math.pi) / 2.0 * math.erf(1.0)
    assert abs(res.value - truth) <= 1e-13


def test_constant_is_exact_with_zero_error():
    one = Integrand(lambda x: 1.0)
    res = reference_integral(one, UNIT, tol=1e-12)
    assert res.value == 1.0
    assert res.est_abs_error == 0.0
    assert res.subdivisions == 1


def test_tolerance_floor():
    with pytest.raises(ValueError):
        reference_integral(EXP, UNIT, tol=1e-15)
    with pytest.raises(ValueError, match="got nan"):
        reference_integral(EXP, UNIT, tol=math.nan)


@pytest.mark.parametrize(
    "fn, iv",
    [(lambda x: 1e308, Interval(0.0, 10.0)),
     (lambda x: 1.7e308 * math.sin(x), Interval(0.0, 20.0)),
     (lambda x: 1.7e308 * math.sin(x), Interval(-1.0, 1.0))],
    ids=["inf", "inf-minus-inf", "inf-error-estimate"],
)
def test_overflowing_reference_is_an_evaluation_error(fn, iv):
    xs = []
    counting = Integrand(lambda x: xs.append(x) or fn(x))
    with pytest.raises(EvaluationError, match="reference value overflows"):
        reference_integral(counting, iv, tol=1e-12)
    assert len(xs) == 15  # one G7/K15 segment: bisecting cannot mend an overflow


def test_subdivision_limit_carries_best_value():
    # one segment on [-2, 2] estimates 7.3e-13, above its 8.1e-14 floor
    with pytest.raises(ReferenceConvergenceError) as exc:
        reference_integral(EXP, Interval(-2.0, 2.0), tol=1e-14, segment_limit=1)
    assert abs(exc.value.best_value - 2.0 * math.sinh(2.0)) < 1e-10
    assert exc.value.est_abs_error > 1e-14


@pytest.mark.parametrize("fn", CORPUS, ids=lambda c: c.name)
def test_oracle_stability(fn):
    f = fn.integrand()
    loose = reference_integral(f, UNIT, tol=1e-10).value
    tight = reference_integral(f, UNIT, tol=1e-12).value
    assert abs(loose - tight) <= 1e-10


def test_needle_forces_subdivision():
    needle = Integrand(lambda x: 1.0 / (1e-4 + (x - 0.31) ** 2))
    res = reference_integral(needle, UNIT, tol=1e-10)
    truth = (math.atan((1 - 0.31) / 1e-2) + math.atan(0.31 / 1e-2)) / 1e-2
    assert res.subdivisions > 4
    assert abs(res.value - truth) <= 1e-9


def _monomial_residual(nodes, degree: int) -> Fraction:
    """Exact rule sum of x^degree over +-nodes on [-1, 1], minus the integral."""
    total = Fraction(0)
    for x, w in nodes:
        x, w = Fraction(x), Fraction(w)
        total += w * (x**degree + (-x) ** degree) if x else w * x**degree
    return total - (Fraction(2, degree + 1) if degree % 2 == 0 else 0)


# One G7/K15 segment per case, and the clause of dqk15 that sets its error:
# the 50*eps*resabs floor, resasc * (200*err/resasc)^1.5, or resasc itself.
_DQK15_CASES = [
    ("exp-sym", math.exp, -1.0, 1.0, "floor"),
    ("exp-unit", math.exp, 0.0, 1.0, "floor"),
    ("exp8-offset", lambda x: math.exp(8.0 * x), 0.3, 1.7, "power"),
    ("gauss-wide", lambda x: math.exp(-x * x), 0.0, 6.0, "power"),
    ("runge", lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0, "resasc"),
    ("peak-wide", lambda x: 1.0 / (1e-2 + (x - 1.1) ** 2), 0.0, 3.0, "resasc"),
    ("sin30", lambda x: math.sin(30.0 * x), 0.0, 1.0, "resasc"),
    ("x18", lambda x: x**18, -1.0, 1.0, "resasc"),
]


def test_kronrod_segment_matches_dqk15():
    """Node and weight tables by exactness on monomials, then each case
    against QUADPACK's dqk15 recomputed in 50-digit mpmath from the same
    15 samples.  The error is compared to 1e-8 because resk - resg cancels."""
    kronrod = list(zip(_XGK, _WGK))
    gauss = [(_XGK[i], w) for i, w in zip((1, 3, 5, 7), _WG)]
    for d in range(23):
        assert abs(_monomial_residual(kronrod, d)) < 1e-15, d
    for d in range(14):
        assert abs(_monomial_residual(gauss, d)) < 1e-15, d
    assert abs(_monomial_residual(kronrod, 24)) > 1e-9
    assert abs(_monomial_residual(gauss, 14)) > 1e-4

    for name, fn, lo, hi, branch in _DQK15_CASES:
        samples = []
        f = Integrand(lambda x: samples.append((x, fn(x))) or fn(x))
        value, err, floor_, fixed = _kronrod_segment(f, lo, hi)
        assert len(samples) == 15, name
        with mpmath.workdps(50):
            mpf = mpmath.mpf
            scale = mpf(0.5 * (hi - lo))
            centre = mpf(lo + 0.5 * (hi - lo))
            fs = []
            for x, fx in samples:  # match each abscissa to its node
                t = abs((mpf(x) - centre) / scale)
                i = min(range(8), key=lambda j: abs(t - _XGK[j]))
                assert abs(t - _XGK[i]) < 1e-14, name
                fs.append((i, mpf(fx)))
            assert sorted(i for i, _ in fs) == sorted([*range(7)] * 2 + [7]), name
            resk = sum(mpf(_WGK[i]) * fx for i, fx in fs)
            resg = sum(mpf(_WG[i // 2]) * fx for i, fx in fs if i % 2)
            resabs = sum(mpf(_WGK[i]) * abs(fx) for i, fx in fs) * abs(scale)
            resasc = sum(mpf(_WGK[i]) * abs(fx - resk / 2) for i, fx in fs) * abs(scale)
            ratio = 200 * abs(resk - resg) * abs(scale) / resasc
            want = resasc * min(1, ratio**1.5)
            floor = 50 * mpf(2) ** -52 * resabs
            taken = "floor" if floor > want else "power" if ratio < 1 else "resasc"
            assert taken == branch, name
            assert abs(value - resk * scale) <= 1e-15 * resabs, name
            assert abs(err - max(want, floor)) <= 1e-8 * max(want, floor), name
            assert abs(floor_ - floor) <= 1e-14 * floor, name
            assert (err == floor_) == (branch == "floor"), name
            one_signed = all(fx >= 0 for _, fx in fs) or all(fx <= 0 for _, fx in fs)
            assert fixed == (floor_ if one_signed else 0.0), name
            if branch == "floor":  # not a near tie with the difference estimate
                assert want < 1e-3 * floor, name
            if name == "x18":  # K15 is exact here, G7 is not
                assert abs(value - 2.0 / 19.0) <= 1e-15
                assert abs(resk - resg) > 1e-3


# Sample values for the bitwise segment check: both zeros, subnormals, the
# normal range and values near the float maximum.  Vectors of the large ones
# make fsum raise (OverflowError past the maximum, ValueError on inf - inf)
# and make the sum of the samples non-finite.
_LARGE_SAMPLES = st.sampled_from([8.9e307, -8.9e307, 1.7e308, -1.7e308, 0.0, 1.0])
_SAMPLE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]),
    _LARGE_SAMPLES,
    st.floats(-1e6, 1e6),
    st.floats(allow_nan=False, allow_infinity=False),
)
# node positions on [-1, 1] in sampling order
_NODE_T = [side * x for x in _XGK[:7] for side in (-1.0, 1.0)] + [0.0]
_SAMPLE_VECTORS = st.one_of(
    st.builds(lambda v: [v] * 15, _SAMPLE),  # flat
    # smooth: the difference estimate is small, so dqk15's power law sets the error
    st.builds(lambda r, c: [c * math.exp(r * t) for t in _NODE_T], st.floats(-30, 30),
              st.floats(-1e3, 1e3)),
    st.lists(st.floats(-10, 10), min_size=1, max_size=24).map(
        lambda cs: [math.fsum(c * t**i for i, c in enumerate(cs)) for t in _NODE_T]
    ),
    st.lists(_SAMPLE, min_size=15, max_size=15).map(lambda s: [abs(v) for v in s]),
    st.lists(_SAMPLE, min_size=15, max_size=15).map(lambda s: [-abs(v) for v in s]),
    st.lists(_SAMPLE, min_size=15, max_size=15),  # mixed signs
    st.lists(_LARGE_SAMPLES, min_size=15, max_size=15),
)


@settings(max_examples=600, deadline=None)
@example([8.9e307] * 14 + [1.7e308], 0.0, 1.0, True)  # fsum: intermediate overflow
@example([1.7e308] * 2 + [-1.7e308] * 2 + [0.0] * 11, 0.0, 1.0, True)  # fsum: -inf + inf
@example([-0.0] * 14 + [0.0], -1.0, 2.0, False)  # flat: the zeros compare equal
@given(
    _SAMPLE_VECTORS,
    st.floats(-1e3, 1e3),
    st.sampled_from([1e-300, 1e-3, 1.0, 2.0, 1e3, 1e300]),
    st.booleans(),
)
def test_kronrod_segment_is_bitwise_the_list_formula(samples, lo, width, unchecked):
    """The unrolled segment against the list-based dqk15 formula, on the
    same 15 samples: the same bits or the same exception.  An unchecked
    pass (as for an expression integrand) whose samples sum past the float
    maximum replays them through the checked ``f``, which must change
    nothing."""
    hi = lo + width
    calls = []

    def script(x):
        calls.append(x)
        return samples[(len(calls) - 1) % 15]

    f = Integrand(script)
    if unchecked:
        f._pair_terms = object()  # mark ``_fn`` as sampled unchecked
    got = outcome(lambda seg: _kronrod_segment(f, *seg), (lo, hi))
    assert got == outcome(lambda seg: dqk15_reference(samples, *seg), (lo, hi))
    scale = 0.5 * (hi - lo)
    centre = lo + scale
    nodes = [centre + side * scale * x for x in _XGK[:7] for side in (-1.0, 1.0)]
    assert calls[:15] == [*nodes, centre]
    replayed = unchecked and not math.isfinite(sum(samples))
    assert len(calls) == (30 if replayed else 15)


# -- the running error total ---------------------------------------------------

ONE = Integrand(lambda x: 1.0)
_MAX = 1.7976931348623157e308


def _scripted_segments(monkeypatch, error, floors=lambda lo, hi: (0.0, 0.0)):
    """Replace the G7/K15 segment by one whose error estimate is
    ``error(lo, hi)`` and whose rounding floor and fixed floor are
    ``floors(lo, hi)``; returns the record of every segment's error."""
    made = {}

    def segment(f, lo, hi):
        made[(lo, hi)] = e = error(lo, hi)
        return 1.0, e, *floors(lo, hi)

    monkeypatch.setattr(msquad.reference, "_kronrod_segment", segment)
    return made


def _live_segments(made, lo=0.0, hi=1.0):
    """The segments on the heap: the unbisected leaves."""
    mid = lo + 0.5 * (hi - lo)
    if (lo, mid) not in made:
        return [(lo, hi)]
    return _live_segments(made, lo, mid) + _live_segments(made, mid, hi)


def _live_errors(made):
    """Errors of the segments on the heap."""
    return [made[segment] for segment in _live_segments(made)]


def _total_after(limit, tol=1e-14):
    """The oracle's summed error estimate when it stops at ``limit`` segments."""
    try:
        return reference_integral(ONE, UNIT, tol, segment_limit=limit).est_abs_error
    except ReferenceConvergenceError as exc:
        return exc.est_abs_error


def _adversarial_error(seed):
    def error(lo, hi):
        rng = random.Random(f"{seed}:{lo!r}:{hi!r}")
        kind = rng.randrange(5)
        if kind == 0:
            return 0.0
        if kind == 1:  # subnormal
            return rng.randrange(1, 2**52) * 5e-324
        if kind == 2:  # large, so popped soon after
            return rng.random() * 1e300
        return rng.random() * 10.0 ** rng.randint(-300, 300)

    return error


@pytest.mark.parametrize("seed", range(6))
def test_running_error_total_is_fsum_of_the_heap(monkeypatch, seed):
    made = _scripted_segments(monkeypatch, _adversarial_error(seed))
    for limit in range(1, 41):  # every step of one bisection run
        made.clear()
        total = _total_after(limit)
        assert total.hex() == math.fsum(_live_errors(made)).hex(), limit


@pytest.mark.parametrize(
    "errors, total",
    [
        # 1e300 cancels back to the one subnormal beside it
        ({(0.0, 1.0): 1e300, (0.0, 0.5): 1e300, (0.5, 1.0): 5e-324,
          (0.0, 0.25): 0.0, (0.25, 0.5): 0.0}, 5e-324),
        ({(0.0, 1.0): 1e300, (0.0, 0.5): 1e-300, (0.5, 1.0): 1e300,
          (0.5, 0.75): 3e-300, (0.75, 1.0): 1e-310}, math.fsum([1e-300, 3e-300, 1e-310])),
    ],
    ids=["to-subnormal", "to-tiny-sum"],
)
def test_running_error_total_cancels_exactly(monkeypatch, errors, total):
    _scripted_segments(monkeypatch, lambda lo, hi: errors[(lo, hi)])
    assert reference_integral(ONE, UNIT, tol=1e-14).est_abs_error == total


@pytest.mark.parametrize(
    "errors",
    [{(0.0, 1.0): 1e308, (0.0, 0.5): 1e308, (0.5, 1.0): 1e308}],
    ids=["past-the-max"],
)
def test_error_total_past_the_float_maximum_overflows(monkeypatch, errors):
    _scripted_segments(monkeypatch, lambda lo, hi: errors[(lo, hi)])
    with pytest.raises(EvaluationError, match="reference value overflows"):
        reference_integral(ONE, UNIT, tol=1e-14)


@pytest.mark.parametrize(
    "errors",
    [
        # the exact sum rounds down to the float maximum, but math.fsum
        # overflows on it in an intermediate step
        {(0.0, 1.0): _MAX, (0.0, 0.5): 2.0**969, (0.5, 1.0): _MAX,
         (0.5, 0.75): _MAX, (0.75, 1.0): math.nextafter(2.0**969, 0.0)},
    ],
    ids=["fsum-intermediate-overflow"],
)
def test_error_total_rounding_to_the_float_maximum_is_finite(monkeypatch, errors):
    made = _scripted_segments(monkeypatch, lambda lo, hi: errors[(lo, hi)])
    with pytest.raises(ReferenceConvergenceError) as exc:
        reference_integral(ONE, UNIT, tol=1e-14, segment_limit=3)
    live = _live_errors(made)
    assert len(live) == 3
    exact = float(sum(map(Fraction, live)))  # correctly rounded
    assert exact == _MAX
    assert exc.value.est_abs_error == exact


def test_oracle_sums_are_linear_in_segments(monkeypatch):
    counts = {"items": 0, "segments": 0}

    def fsum(items):
        items = list(items)
        counts["items"] += len(items)
        return math.fsum(items)

    def segment(*args, real=msquad.reference._kronrod_segment):
        counts["segments"] += 1
        return real(*args)

    monkeypatch.setattr(msquad.reference, "math", SimpleNamespace(**{**vars(math), "fsum": fsum}))
    monkeypatch.setattr(msquad.reference, "_kronrod_segment", segment)
    with pytest.raises(ReferenceConvergenceError, match="after 2048 segments"):
        reference_integral(expression_integrand("sin(1/x)"), Interval(1e-4, 1.0), tol=1e-13)
    # a segment sums 53 products itself (K15, G7, |f| and |f - mean|); the
    # bookkeeping adds O(1) per segment, where re-summing the heap added O(S)
    assert counts["segments"] == 2 * 2048 - 1
    assert counts["items"] < 64 * counts["segments"]


# -- the rounding-floor stop ------------------------------------------------------


def test_oracle_stops_at_its_rounding_floor():
    """On [0, 3], integral|exp| = 19.1 puts the dqk15 floor 50*eps*resabs of
    the first segment at 2.1e-13, above the studies' tolerance 1e-13."""
    res = reference_integral(EXP, Interval(0.0, 3.0), tol=1e-13)
    assert res.subdivisions == 1
    with mpmath.workdps(50):
        mpf = mpmath.mpf
        centre = scale = mpf(1.5)
        nodes = [(w, t) for x, w in zip(_XGK, _WGK) for t in {x, -x}]  # the centre once
        assert len(nodes) == 15
        resabs = scale * sum(mpf(w) * mpmath.exp(centre + scale * mpf(t)) for w, t in nodes)
        floor = 50 * mpf(2) ** -52 * resabs
        assert abs(res.est_abs_error - floor) <= 1e-14 * floor
        assert abs(res.value - (mpmath.exp(3) - 1)) <= res.est_abs_error
    assert res.est_abs_error > 1e-13


def test_studies_run_where_the_floor_is_above_their_tolerance():
    exp, exp_iv = expression_integrand("exp(x)"), Interval(0.0, 3.0)
    table = convergence_study(Rule.MODIFIED_SIMPSON, exp, exp_iv, [2, 4, 8, 16, 32, 64])
    ref = reference_integral(exp, exp_iv, tol=1e-13)
    assert table.reference_value == ref.value
    assert abs(table.fitted_order - 6.0) < 0.1
    with mpmath.workdps(50):
        assert abs(ref.value - (mpmath.exp(3) - 1)) <= ref.est_abs_error

    peak, peak_iv = expression_integrand("1/(1e-2+x^2)"), SYM
    comparison = compare_rules(peak, peak_iv, [2, 4, 8, 16, 32, 64])
    ref = reference_integral(peak, peak_iv, tol=1e-13)
    assert comparison.simpson.reference_value == comparison.modified.reference_value == ref.value
    with mpmath.workdps(50):
        root = mpmath.sqrt(mpmath.mpf(1e-2))  # the float the expression holds
        assert abs(ref.value - 2 * mpmath.atan(1 / root) / root) <= ref.est_abs_error


def _floored_segments(seed, one_signed):
    """Scripted errors and (floor, fixed floor) pairs.  Floors are near
    (hi - lo) * 1e-12, so their sum stays above the tolerance 1e-14; each
    is fixed, as on a one-signed segment, with probability ``one_signed``.
    Errors are above the floor on segments wider than 2**-4 that start at
    0, and on some of those in [0.5, 1]; they are on the floor elsewhere."""
    def floors(lo, hi):
        rng = random.Random(f"{seed}:{lo!r}:{hi!r}")
        floor = (hi - lo) * 1e-12 * rng.uniform(0.5, 2.0)
        return floor, floor if rng.random() < one_signed else 0.0

    def error(lo, hi):
        rng = random.Random(f"{seed}:{lo!r}:{hi!r}:above")
        above = hi - lo > 2.0**-4 and (lo == 0.0 or lo >= 0.5 and rng.random() < 0.6)
        return floors(lo, hi)[0] * (1.0 + rng.random()) if above else floors(lo, hi)[0]

    return error, floors


def _floor_stop_steps(monkeypatch, seed, one_signed):
    """Run the scripted oracle to each segment limit in turn, every step of
    one bisection run, checking that it stops at the floor exactly when all
    live errors are on their floors and the fixed floors sum above tol.
    Returns per step whether it raised, and whether it raised with some
    segment on its floor."""
    error, floors = _floored_segments(seed, one_signed)
    made = _scripted_segments(monkeypatch, error, floors)
    steps = []
    for limit in range(1, 41):
        made.clear()
        try:
            res = reference_integral(ONE, UNIT, tol=1e-14, segment_limit=limit)
        except ReferenceConvergenceError as exc:
            res, total = None, exc.est_abs_error
        else:
            total = res.est_abs_error
        live = _live_segments(made)
        assert total.hex() == math.fsum(made[s] for s in live).hex(), limit
        at_floor = [made[s] == floors(*s)[0] for s in live]
        stuck = all(at_floor) and sum(Fraction(floors(*s)[1]) for s in live) > 1e-14
        if res is None:
            assert len(live) == limit and not stuck, limit
        else:
            assert res.subdivisions == len(live) and stuck, limit
        steps.append((res is None, res is None and any(at_floor)))
    return steps


@pytest.mark.parametrize("seed", range(6))
def test_floor_stop_waits_for_every_segment(monkeypatch, seed):
    steps = _floor_stop_steps(monkeypatch, seed, one_signed=0.8)
    raised, waited = zip(*steps)
    assert raised[0] and any(waited) and not raised[-1]  # it bisected, then stopped


@pytest.mark.parametrize("seed", range(3))
def test_floor_stop_waits_for_fixed_floors_above_tol(monkeypatch, seed):
    # no floor is fixed, so bisecting might lower any of them below tol
    steps = _floor_stop_steps(monkeypatch, seed, one_signed=0.0)
    assert all(raised for raised, _ in steps)


def test_floor_that_bisecting_lowers_does_not_stop():
    """|3 sin(47x)| has a kink at each zero, and resabs, the floor with it,
    drops as bisecting resolves them: this tolerance is a hair below the
    floors' sum at 32 segments and above it further on."""
    f, iv, tol = expression_integrand("3*sin(47*x)"), Interval(1.0, 3.0), 4.24712167814391e-14
    res = reference_integral(f, iv, tol)
    assert res.est_abs_error <= tol
    with mpmath.workdps(50):
        truth = 3 * (mpmath.cos(47 * mpmath.mpf(1)) - mpmath.cos(47 * mpmath.mpf(3))) / 47
        assert abs(res.value - truth) <= tol


# -- the unchecked sampler -------------------------------------------------------


def _oracle_outcome(f, iv, tol, limit=_DEFAULT_SEGMENT_LIMIT):
    try:
        r = reference_integral(f, iv, tol, limit)
    except ReferenceConvergenceError as exc:
        return type(exc), str(exc), exc.best_value.hex(), exc.est_abs_error.hex()
    except Exception as exc:  # any difference must show
        return type(exc), str(exc), repr(getattr(exc, "abscissa", None))
    return r.value.hex(), r.est_abs_error.hex(), r.subdivisions


def _sampled_and_checked(text):
    sampled = expression_integrand(text)
    checked = Integrand(compile_expression(parse(text)))
    assert sampled._pair_terms is not None and checked._pair_terms is None
    return sampled, checked


@settings(max_examples=300, deadline=None)
@given(EDGE_TREES, EDGE_LIMITS, EDGE_LIMITS, st.floats(-13.9, -5.0), st.integers(1, 64))
def test_unchecked_sampler_matches_checked_path(tree, a, b, log_tol, limit):
    assume(a < b and math.isfinite(b - a))
    sampled, checked = _sampled_and_checked(edge_text(tree))
    iv, tol = Interval(a, b), 10.0**log_tol
    assert _oracle_outcome(sampled, iv, tol, limit) == _oracle_outcome(checked, iv, tol, limit)


@pytest.mark.parametrize(
    "text, iv, message, abscissa",
    [
        # the compiled function raises at the centre, the last sample
        ("1/(x-0.5)", UNIT, "division by zero", 0.5),
        # only the centre, the last sample, is inf
        ("1/x", Interval(-1e-300, 1.00000001e-300), "function value is non-finite",
         -1e-300 + 0.5 * (1.00000001e-300 - -1e-300)),
        # only the first sample, the outermost below the centre, is inf
        ("1/x", Interval(0.0, 2.0**-1017), "function value is non-finite",
         2.0**-1018 - 2.0**-1018 * _XGK[0]),
    ],
    ids=["raises-at-centre", "inf-at-centre", "inf-at-first-node"],
)
def test_unchecked_sampler_replays_a_failure(text, iv, message, abscissa):
    sampled, checked = _sampled_and_checked(text)
    got = _oracle_outcome(sampled, iv, 1e-10)
    assert got == _oracle_outcome(checked, iv, 1e-10)
    assert got == (EvaluationError, f"{message} (at x = {abscissa!r})", repr(abscissa))


def test_unchecked_sampler_checks_nothing_on_finite_samples(monkeypatch):
    sampled, checked = _sampled_and_checked("exp(-x^2)*sin(3*x)+1/(1+x^2)")
    want = _oracle_outcome(checked, SYM, 1e-13)
    calls = []
    call = Integrand.__call__
    monkeypatch.setattr(Integrand, "__call__", lambda f, x: calls.append(x) or call(f, x))
    assert _oracle_outcome(sampled, SYM, 1e-13) == want
    assert calls == []  # every segment came from the unchecked pass


def test_callable_integrand_keeps_the_checked_path():
    wordy = Integrand.from_callables(lambda x: "one")
    with pytest.raises(EvaluationError, match="function value is not a number") as exc:
        reference_integral(wordy, UNIT, tol=1e-10)
    assert exc.value.abscissa == 0.5 - 0.5 * _XGK[0]  # the first sample


# -- convergence studies ---------------------------------------------------------


def test_modified_rule_order_six():
    table = convergence_study(Rule.MODIFIED_SIMPSON, GAUSS, UNIT, [2, 4, 8, 16, 32, 64])
    assert table.fitted_order is not None
    assert 5.75 <= table.fitted_order <= 6.25
    hs = [r.h for r in table.rows]
    assert hs == sorted(hs, reverse=True)
    # rows at the rounding floor stay out of the fit window
    floored = [i for i, r in enumerate(table.rows) if r.abs_error <= 1e-13]
    assert floored
    assert not set(floored) & set(table.fit_window)


def test_simpson_order_four():
    table = convergence_study(Rule.SIMPSON, GAUSS, UNIT, [2, 4, 8, 16, 32, 64])
    assert table.fitted_order is not None
    assert 3.75 <= table.fitted_order <= 4.25


def test_exact_integrand_reports_empty_fit_window():
    quintic = poly_integrand([0.3, -1.0, 0.2, 0.5, 0.0, 2.0])
    table = convergence_study(Rule.MODIFIED_SIMPSON, quintic, SYM, [1, 2, 4])
    assert all(r.abs_error <= 1e-13 for r in table.rows)
    assert table.fitted_order is None
    assert table.fit_window == ()


def _exact_slope(rows, window):
    """Least-squares slope over the same ``math.log`` values, in exact
    rational arithmetic, rounded once."""
    u = [Fraction(math.log(rows[i].h)) for i in window]
    v = [Fraction(math.log(rows[i].abs_error)) for i in window]
    mu, mv = sum(u) / len(u), sum(v) / len(v)
    sxy = sum((p - mu) * (q - mv) for p, q in zip(u, v))
    sxx = sum((p - mu) ** 2 for p in u)
    return float(sxy / sxx)


@pytest.mark.parametrize(
    "ns, error, window",
    [
        # near-exact h^6; the first row is above the pre-asymptotic ceiling
        ((1, 2, 4, 8, 16, 32), lambda n, h: 0.7 * h**6 * (1 + 1e-9 * n), (1, 2, 3, 4, 5)),
        # two rows inside the window, the last below the rounding floor
        ((2, 4, 8), lambda n, h: {2: 3e-3, 4: 2.1e-4, 8: 1e-14}[n], (0, 1)),
        # seven noisy rows of an order-4 rule
        ((2, 3, 5, 8, 13, 21, 34), lambda n, h: 0.1 * h**4 * (1 + 0.3 * math.sin(n)),
         (0, 1, 2, 3, 4, 5, 6)),
    ],
    ids=["h6", "two-rows", "seven-rows"],
)
def test_fit_order_matches_exact_least_squares(ns, error, window):
    rows = tuple(
        ConvergenceRow(n_pairs=n, h=0.5 / n, approx=0.0, abs_error=error(n, 0.5 / n))
        for n in ns
    )
    fitted, got_window = _fit_order(rows)
    assert got_window == window
    assert ulp_distance(fitted, _exact_slope(rows, window)) <= 4


def test_monotone_refinement_for_corpus():
    for fn in CORPUS:
        table = convergence_study(
            Rule.MODIFIED_SIMPSON, fn.integrand(), UNIT, [1, 2, 4, 8, 16]
        )
        errs = [r.abs_error for r in table.rows]
        for e1, e2 in zip(errs, errs[1:]):
            if e1 < 1e-2 and e1 > 1e-13:
                assert e2 <= e1, fn.name


def test_asymptotic_constant_matches_leading_error():
    from msquad.integrand import UniformGrid
    from msquad.rules import composite_modified_simpson

    table = convergence_study(
        Rule.MODIFIED_SIMPSON, GAUSS, UNIT, [2, 4, 8, 12, 14, 16]
    )
    pre_floor = [r for r in table.rows if r.abs_error > 1e-13]
    for row in pre_floor[-3:]:
        est = composite_modified_simpson(
            GAUSS, UniformGrid(UNIT, row.n_pairs)
        ).leading_error_estimate
        assert est is not None
        assert abs(row.abs_error / abs(est) - 1.0) <= 0.10


def test_study_validation():
    with pytest.raises(ValueError):
        convergence_study(Rule.MIDPOINT, EXP, UNIT, [1, 2])
    with pytest.raises(ValueError):
        convergence_study(Rule.SIMPSON, EXP, UNIT, [])
    with pytest.raises(ValueError):
        convergence_study(Rule.SIMPSON, EXP, UNIT, [4, 2])


# -- rule comparison ---------------------------------------------------------------


def test_compare_runs_the_oracle_once(monkeypatch):
    import msquad.reference

    calls = []
    real = msquad.reference.reference_integral
    monkeypatch.setattr(msquad.reference, "reference_integral",
                        lambda *args, **kw: calls.append(args) or real(*args, **kw))
    with pytest.raises(ValueError):
        compare_rules(GAUSS, UNIT, [4, 2])
    assert calls == []
    cmp = compare_rules(GAUSS, UNIT, [1, 2])
    assert len(calls) == 1
    assert cmp.simpson == convergence_study(Rule.SIMPSON, GAUSS, UNIT, [1, 2])
    assert cmp.modified == convergence_study(Rule.MODIFIED_SIMPSON, GAUSS, UNIT, [1, 2])


def test_compare_exp_single_pair():
    cmp = compare_rules(EXP, SYM, [1])
    assert cmp.simpson.rows[0].abs_error == pytest.approx(1.17e-2, rel=2e-2)
    assert cmp.modified.rows[0].abs_error == pytest.approx(2.21e-4, rel=2e-2)
    assert cmp.error_ratios[0] == pytest.approx(53.0, abs=2.0)
    assert cmp.error_ratios[0] >= 50.0


def test_compare_gauss_reaches_six_decimals():
    cmp = compare_rules(GAUSS, UNIT, [1, 2])
    assert cmp.modified.rows[1].abs_error <= 5e-7


def test_compare_linear_integrand():
    linear = poly_integrand([1.0, 2.0])
    cmp = compare_rules(linear, UNIT, [1, 2])
    for rs, rm in zip(cmp.simpson.rows, cmp.modified.rows):
        assert rs.abs_error <= 1e-15
        assert rm.abs_error <= 1e-15


def test_convergence_csv_shape():
    def converge_csv() -> str:
        out = io.StringIO()
        code = run(["converge", "--f", "exp(-x^2)", "-a", "0", "-b", "1",
                    "--n-list", "2,4", "--format", "csv"], out=out)
        assert code == 0
        return out.getvalue()

    text = converge_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "h,approx,abs_error"
    assert len(lines) == 4
    assert lines[-1].startswith("fitted_order,")
    table = convergence_study(Rule.MODIFIED_SIMPSON, expression_integrand("exp(-x^2)"),
                              UNIT, [2, 4])
    assert lines[1:3] == [f"{r.h!r},{r.approx!r},{r.abs_error!r}" for r in table.rows]
    assert converge_csv() == text  # byte-stable


def test_determinism():
    t1 = convergence_study(Rule.MODIFIED_SIMPSON, GAUSS, UNIT, [2, 4, 8])
    t2 = convergence_study(Rule.MODIFIED_SIMPSON, GAUSS, UNIT, [2, 4, 8])
    assert t1 == t2
