import concurrent.futures
import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import (
    EDGE_LIMITS,
    EDGE_TREES,
    VALUE_CORPUS,
    edge_text,
    exact_modified_simpson_error,
    poly_integral,
    poly_integrand,
)
from msquad.errors import DerivativeUnavailableError, EvaluationError
from msquad.expressions import compile_expression, compile_pair_terms, parse
from msquad.integrand import Integrand, Interval, UniformGrid
from msquad.jets import expression_integrand
from msquad.rules import (
    _PAIRS,
    Rule,
    composite_modified_simpson,
    composite_simpson,
    corrected_midpoint_panel,
    leading_error_estimate,
    midpoint_panel,
)

EXP = Integrand.from_callables(math.exp, *[math.exp] * 6, name="exp")
UNIT = Interval(0.0, 1.0)
SYM = Interval(-1.0, 1.0)


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def simpson_panel(f: Integrand, iv: Interval) -> float:
    """Simpson's rule on one panel: the composite over one pair."""
    return composite_simpson(f, UniformGrid(iv, 1)).value


def modified_simpson_panel(f: Integrand, iv: Interval) -> float:
    """The corrected Simpson rule on one panel: the composite over one pair."""
    return composite_modified_simpson(f, UniformGrid(iv, 1)).value


# -- single-panel examples -----------------------------------------------------


def test_midpoint_examples():
    assert midpoint_panel(poly_integrand([1.0]), UNIT) == 1.0
    assert midpoint_panel(poly_integrand([0.0, 1.0]), Interval(0.0, 2.0)) == 2.0
    assert midpoint_panel(poly_integrand([0.0, 0.0, 1.0]), UNIT) == 0.25


def test_corrected_midpoint_examples():
    cubic = poly_integrand([0.0, 0.0, 0.0, 1.0])
    assert corrected_midpoint_panel(cubic, UNIT) == pytest.approx(0.25, rel=1e-15)
    square = poly_integrand([0.0, 0.0, 1.0])
    assert corrected_midpoint_panel(square, UNIT) == pytest.approx(1 / 3, rel=1e-15)
    # hand arithmetic: e^(1/2) + (e - 1)/24
    oracle = math.exp(0.5) + (math.e - 1.0) / 24.0
    assert corrected_midpoint_panel(EXP, UNIT) == pytest.approx(oracle, rel=1e-15)


def test_corrected_midpoint_requires_first_derivative():
    bare = Integrand(lambda x: x * x)
    with pytest.raises(DerivativeUnavailableError):
        corrected_midpoint_panel(bare, UNIT)


def test_simpson_examples():
    got = simpson_panel(EXP, SYM)
    assert got == pytest.approx((math.e + 4.0 + 1.0 / math.e) / 3.0, rel=1e-15)
    assert f"{got:.5g}" == "2.3621"
    # off from the true integral by about 0.01
    assert abs(got - (math.e - 1.0 / math.e)) == pytest.approx(0.0117, abs=2e-3)
    cubic = poly_integrand([0.0, 0.0, 0.0, 1.0])
    assert simpson_panel(cubic, UNIT) == pytest.approx(0.25, rel=1e-15)
    quartic = poly_integrand([0.0, 0.0, 0.0, 0.0, 1.0])
    assert simpson_panel(quartic, UNIT) == pytest.approx(5.0 / 24.0, rel=1e-15)


def test_modified_simpson_examples():
    got = modified_simpson_panel(EXP, SYM)
    assert got == pytest.approx((6 * math.e + 16 + 8 / math.e) / 15.0, rel=1e-13)
    assert f"{got:.5g}" == "2.3502"
    quintic = poly_integrand([0.0] * 5 + [1.0])
    assert modified_simpson_panel(quintic, UNIT) == pytest.approx(1 / 6, rel=1e-14)


def test_modified_simpson_breaks_at_degree_six():
    x6 = [F(0)] * 6 + [F(1)]
    err = exact_modified_simpson_error(x6, F(-1), F(1))
    assert err == F(16, 105)
    sextic = poly_integrand([0.0] * 6 + [1.0])
    got = modified_simpson_panel(sextic, SYM)
    assert got == pytest.approx(2.0 / 15.0, rel=1e-15)
    assert (2.0 / 7.0 - got) == pytest.approx(float(F(16, 105)), rel=1e-14)


# -- composite rules -----------------------------------------------------------


def test_composite_simpson_brute_force_oracle():
    f = expression_integrand("exp(-x^2)")
    grid = UniformGrid(UNIT, 2)
    h = 0.25
    nodes = [0.0, 0.25, 0.5, 0.75, 1.0]
    fs = [math.exp(-x * x) for x in nodes]
    oracle = (h / 3.0) * (fs[0] + 4 * fs[1] + 2 * fs[2] + 4 * fs[3] + fs[4])
    got = composite_simpson(f, grid)
    assert got.value == pytest.approx(oracle, rel=1e-14)
    assert f"{got.value:.6f}" == "0.746855"
    assert got.rule_id is Rule.SIMPSON
    assert got.panels == 2
    assert got.leading_error_estimate is None


def test_composite_simpson_trivial_cases():
    one = poly_integrand([1.0])
    for n in (1, 3, 8):
        got = composite_simpson(one, UniformGrid(Interval(-2.0, 5.0), n))
        assert got.value == pytest.approx(7.0, rel=1e-15)
    cubic = poly_integrand([0.0, 0.0, 0.0, 1.0])
    assert composite_simpson(cubic, UniformGrid(UNIT, 1)).value == pytest.approx(
        0.25, rel=1e-15
    )


def test_composite_modified_simpson_six_decimal_accuracy():
    f = expression_integrand("exp(-x^2)")
    coarse = composite_modified_simpson(f, UniformGrid(UNIT, 1))
    fine = composite_modified_simpson(f, UniformGrid(UNIT, 2))
    assert abs(coarse.value - 0.746795) <= 5e-7
    assert abs(fine.value - 0.746824) <= 5e-7
    assert coarse.leading_error_estimate is not None


def test_composite_modified_simpson_degree5_exact():
    rng = random.Random(415926)
    for _ in range(25):
        coeffs = [rng.uniform(-4.0, 4.0) for _ in range(6)]
        a = rng.uniform(-3.0, 2.0)
        b = a + rng.uniform(0.5, 3.0)
        exact = poly_integral([F(c) for c in coeffs], F(a), F(b))
        if abs(exact) < 0.1:
            coeffs[0] += 7.0
            exact = poly_integral([F(c) for c in coeffs], F(a), F(b))
        n = rng.randint(1, 6)
        got = composite_modified_simpson(
            poly_integrand(coeffs), UniformGrid(Interval(a, b), n)
        )
        assert rel_err(got.value, float(exact)) <= 1e-13


def test_leading_error_estimate_examples():
    sextic = poly_integrand([0.0] * 6 + [1.0])
    est = leading_error_estimate(sextic, UniformGrid(SYM, 1))
    assert est == pytest.approx(float(F(16, 105)), rel=1e-15)
    # for x^5 the fifth derivative is constant, so the estimate vanishes
    quintic = poly_integrand([0.0] * 5 + [1.0])
    assert leading_error_estimate(quintic, UniformGrid(SYM, 3)) == 0.0
    est_exp = leading_error_estimate(EXP, UniformGrid(SYM, 1))
    assert est_exp == pytest.approx((math.e - 1 / math.e) / 9450.0, rel=1e-15)
    true_err = (math.e - 1 / math.e) - modified_simpson_panel(EXP, SYM)
    assert 0.1 < est_exp / abs(true_err) < 10.0  # same order of magnitude


def test_leading_error_estimate_needs_order_five():
    f = Integrand.from_callables(math.exp, math.exp)
    with pytest.raises(DerivativeUnavailableError):
        leading_error_estimate(f, UniformGrid(UNIT, 1))
    res = composite_modified_simpson(f, UniformGrid(UNIT, 2))
    assert res.leading_error_estimate is None


def test_failing_fifth_derivative_leaves_the_estimate_unset():
    # the jet of sqrt fails at 0, where x*sqrt(x) and the f' override are finite
    f = expression_integrand("x*sqrt(x)", df_text="1.5*sqrt(x)")
    with pytest.raises(EvaluationError, match="sqrt not differentiable"):
        leading_error_estimate(f, UniformGrid(UNIT, 1))
    res = composite_modified_simpson(f, UniformGrid(UNIT, 1))
    assert res.leading_error_estimate is None
    # the three-point panel written out, which never evaluates f^(5)
    h = 0.5
    fa, fm, fb = 0.0, h * math.sqrt(h), 1.0
    want = (h / 15.0) * (7.0 * fa + 16.0 * fm + 7.0 * fb) - (h * h / 15.0) * (1.5 - 0.0)
    assert res.value == want
    # without the override f' comes from the same jet, and its failure aborts
    with pytest.raises(EvaluationError, match="sqrt not differentiable"):
        composite_modified_simpson(expression_integrand("x*sqrt(x)"), UniformGrid(UNIT, 1))


# -- invariants ----------------------------------------------------------------


PANEL_RULES = (
    (midpoint_panel, 1),
    (corrected_midpoint_panel, 3),
    (simpson_panel, 3),
    (modified_simpson_panel, 5),
)


@pytest.mark.parametrize("rule,degree", PANEL_RULES)
def test_degree_exactness(rule, degree):
    rng = random.Random(1000 + degree)
    for _ in range(25):
        coeffs = [rng.uniform(-4.0, 4.0) for _ in range(degree + 1)]
        a = rng.uniform(-2.0, 1.0)
        b = a + rng.uniform(0.5, 2.5)
        exact = poly_integral([F(c) for c in coeffs], F(a), F(b))
        if abs(exact) < 0.1:
            coeffs[0] += 7.0
            exact = poly_integral([F(c) for c in coeffs], F(a), F(b))
        got = rule(poly_integrand(coeffs), Interval(a, b))
        assert rel_err(got, float(exact)) <= 1e-13


def _affine_pullback(c: float, d: float) -> Integrand:
    return Integrand.from_callables(
        lambda x: math.exp(c * x + d), lambda x: c * math.exp(c * x + d)
    )


@pytest.mark.parametrize("rule", [r for r, _ in PANEL_RULES])
def test_affine_covariance(rule):
    rng = random.Random(5150)
    eps = math.ulp(1.0)
    for _ in range(20):
        c = rng.uniform(0.5, 2.0)
        d = rng.uniform(-1.0, 1.0)
        a = rng.uniform(-1.0, 0.0)
        b = a + rng.uniform(0.2, 1.0)
        g = _affine_pullback(c, d)
        lhs = rule(EXP, Interval(c * a + d, c * b + d))
        rhs = c * rule(g, Interval(a, b))
        assert abs(lhs - rhs) <= 4 * eps * max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("rule", [r for r, _ in PANEL_RULES])
def test_linearity(rule):
    alpha, beta = 1.75, -0.4
    sin_f = Integrand.from_callables(math.sin, math.cos)
    combo = Integrand.from_callables(
        lambda x: alpha * math.exp(x) + beta * math.sin(x),
        lambda x: alpha * math.exp(x) + beta * math.cos(x),
    )
    iv = Interval(-0.5, 1.25)
    lhs = rule(combo, iv)
    rhs = alpha * rule(EXP, iv) + beta * rule(sin_f, iv)
    assert rel_err(lhs, rhs) <= 1e-14


def test_single_pair_composite_matches_panel_bitwise():
    # the three-point panel written out: h = (b - a)/2, m = a + h
    rng = random.Random(99)
    for _ in range(20):
        a = rng.uniform(-2.0, 1.0)
        b = a + rng.uniform(0.3, 2.0)
        h = (b - a) / 2
        fa, fm, fb = math.exp(a), math.exp(a + h), math.exp(b)
        simpson = (h / 3.0) * (fa + 4.0 * fm + fb)
        corrected = (h / 15.0) * (7.0 * fa + 16.0 * fm + 7.0 * fb) - (h * h / 15.0) * (fb - fa)
        grid = UniformGrid(Interval(a, b), 1)
        assert composite_simpson(EXP, grid).value == simpson
        assert composite_modified_simpson(EXP, grid).value == corrected


def test_derivative_telescoping():
    first_order_calls: list[float] = []

    def provider(order: int, x: float) -> float:
        if order == 1:
            first_order_calls.append(x)
        return math.exp(x)

    f = Integrand(math.exp, provider, max_order=6)
    iv = Interval(-1.0, 2.0)
    for n in (1, 2, 17, 64):
        first_order_calls.clear()
        composite_modified_simpson(f, UniformGrid(iv, n))
        assert sorted(first_order_calls) == [-1.0, 2.0]


def test_derivative_telescoping_on_the_fused_path():
    f = expression_integrand("exp(-x^2)*sin(3*x)+1/(1+x^2)")
    calls: dict[int, list[float]] = {}
    derivative = f.derivative

    def counted(order: int, x: float) -> float:
        calls.setdefault(order, []).append(x)
        return derivative(order, x)

    f.derivative = counted
    iv = Interval(-1.0, 2.0)
    for n in (1, 2, 17, 64, 100_000):
        calls.clear()
        composite_modified_simpson(f, UniformGrid(iv, n))
        assert sorted(calls[1]) == [-1.0, 2.0]
        assert len(calls[5]) == 2
        assert sorted(calls) == [1, 5]


@pytest.mark.parametrize("f", [expression_integrand("1/x"), Integrand(lambda x: 1.0 / x)],
                         ids=["traced", "streamed"])
@pytest.mark.parametrize("rule", [composite_simpson, composite_modified_simpson])
def test_first_node_is_exactly_a(rule, f):
    # -0.0 + 0*h would be +0.0; the grid starts at a itself
    grid = UniformGrid(Interval(-0.0, 1.0), 1)
    assert math.copysign(1.0, next(grid.nodes())) == -1.0
    with pytest.raises(EvaluationError, match=r"division by zero \(at x = -0\.0\)$"):
        rule(f, grid)


def test_point_error_comes_before_derivative_error():
    f = expression_integrand("1/(x-0.5)", df_text="1/0")
    with pytest.raises(EvaluationError) as info:
        composite_modified_simpson(f, UniformGrid(UNIT, 1))
    assert (str(info.value), info.value.abscissa) == ("division by zero (at x = 0.5)", 0.5)


def test_determinism_and_thread_safety():
    f = expression_integrand("exp(-x^2)")
    grid = UniformGrid(UNIT, 32)
    baseline = composite_modified_simpson(f, grid).value
    assert composite_modified_simpson(f, grid).value == baseline
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(
            pool.map(lambda _: composite_modified_simpson(f, grid).value, range(32))
        )
    assert all(r == baseline for r in results)


def test_composite_sum_is_correctly_rounded():
    # pair terms of both signs over 24 decades; the oracle is the exact
    # Fraction sum of the same float terms, rounded once
    def fn(x):
        return math.sin(997.0 * x) * 10.0 ** round(12 * math.sin(31.0 * x))

    n = 2000
    grid = UniformGrid(UNIT, n)
    h = grid.h
    fs = [fn(j * h) for j in range(2 * n)] + [fn(1.0)]
    pairs = [(h / 3.0) * (fs[j - 1] + 4.0 * fs[j] + fs[j + 1]) for j in range(1, 2 * n, 2)]
    exact = float(sum(map(F, pairs)))
    assert sum(pairs) != exact  # plain float summation gets this wrong
    assert composite_simpson(Integrand(fn), grid).value == exact


def test_composite_memory_does_not_grow_with_pair_count():
    const = Integrand.from_callables(lambda x: 1.0, *[lambda x: 0.0] * 5)
    grid = UniformGrid(UNIT, 200_000)
    tracemalloc.start()
    try:
        value = composite_modified_simpson(const, grid).value
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(1.0, rel=1e-12)
    assert peak < 1 << 20


def test_fused_composite_memory_does_not_grow_with_pair_count():
    f = expression_integrand("exp(-x^2)")
    grid = UniformGrid(UNIT, 200_000)
    tracemalloc.start()
    try:
        value = composite_modified_simpson(f, grid).value
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(0.5 * math.sqrt(math.pi) * math.erf(1.0), rel=1e-13)
    assert peak < 1 << 20


BIG = Integrand.from_callables(lambda x: 1e308, *[lambda x: 0.0] * 6)


@pytest.mark.parametrize(
    "apply",
    [midpoint_panel, corrected_midpoint_panel, simpson_panel, modified_simpson_panel,
     lambda f, iv: composite_simpson(f, UniformGrid(iv, 3)).value,
     lambda f, iv: composite_modified_simpson(f, UniformGrid(iv, 3)).value],
    ids=["midpoint", "cmidpoint", "simpson", "msimpson", "composite-simpson",
         "composite-msimpson"],
)
def test_overflowing_rule_value_is_an_evaluation_error(apply):
    with pytest.raises(EvaluationError, match="rule value overflows"):
        apply(BIG, Interval(0.0, 10.0))


@pytest.mark.parametrize("rule", [composite_simpson, composite_modified_simpson])
def test_overflowing_fused_composite_is_an_evaluation_error(rule):
    # the traced loop's sum is not finite, so the checked replay reports it
    with pytest.raises(EvaluationError, match="rule value overflows"):
        rule(expression_integrand("1e308"), UniformGrid(Interval(0.0, 10.0), 3))


# -- the fused pair loop against the checked stream ----------------------------


def _fused_and_streaming(text: str) -> tuple[Integrand, Integrand]:
    """The expression integrand of ``text``, which runs the traced pair loop,
    and one that streams its compiled point values, with the same derivatives."""
    fused = expression_integrand(text)
    streaming = Integrand(compile_expression(parse(text)),
                          lambda order, x: fused.derivative(order, x), max_order=6)
    assert fused._fast is not None and streaming._fast is None
    return fused, streaming


def _composite_outcome(rule, f: Integrand, grid: UniformGrid):
    try:
        r = rule(f, grid)
    except Exception as exc:  # any difference must show
        return type(exc), str(exc), repr(getattr(exc, "abscissa", None))
    estimate = r.leading_error_estimate
    return r.value.hex(), None if estimate is None else estimate.hex()


@settings(max_examples=300, deadline=None)
@given(EDGE_TREES, EDGE_LIMITS, EDGE_LIMITS, st.integers(1, 200),
       st.sampled_from([composite_simpson, composite_modified_simpson]))
def test_fused_pair_loop_matches_streaming(tree, a, b, n, rule):
    # a grid whose spacing underflows to 0 is rejected when it is built
    assume(a < b and math.isfinite(b - a) and (b - a) / (2 * n) > 0)
    fused, streaming = _fused_and_streaming(edge_text(tree))
    grid = UniformGrid(Interval(a, b), n)
    assert _composite_outcome(rule, fused, grid) == _composite_outcome(rule, streaming, grid)


def _term_hexes(terms) -> list:
    """Each term's bits, NaNs alike, then "error" if the terms stopped on one."""
    out = []
    try:
        for term in terms:
            out.append("nan" if math.isnan(term) else term.hex())
    except (ArithmeticError, ValueError, EvaluationError):
        out.append("error")
    return out


@settings(max_examples=300, deadline=None)
@given(EDGE_TREES, EDGE_LIMITS, EDGE_LIMITS, st.integers(1, 200), st.sampled_from(list(_PAIRS)))
# a = -0.0: the first node is a itself, which -x*0 tells from a + 0*h = +0.0
@example(parse("-x*0"), -0.0, 1.0, 3, Rule.SIMPSON)
@example(parse("-x*0"), -0.0, 2e-323, 1, Rule.MODIFIED_SIMPSON)  # h is subnormal
# n = 1, and a last node that is b although a + 2*h is 0.18999999999999995
@example(parse("x"), -1.13, 0.19, 1, Rule.MODIFIED_SIMPSON)
def test_fused_pair_terms_match_the_checked_stream(tree, a, b, n, rule):
    # Term by term: a total can hide a misplaced node.  The checked stream
    # stops at the first pair with a bad point value; the fused loop must
    # agree on every pair before it, and there raise or give a term that is
    # not finite, which is what sends the sum to the checked replay.
    assume(a < b and math.isfinite(b - a) and (b - a) / (2 * n) > 0)
    f = Integrand(compile_expression(tree))
    grid = UniformGrid(Interval(a, b), n)
    d, we, wm = _PAIRS[rule]
    values = map(f, grid.nodes())

    def checked():
        fa = next(values)
        for fm, fb in zip(values, values):
            yield (grid.h / d) * (we * fa + wm * fm + we * fb)
            fa = fb

    want = _term_hexes(checked())
    got = _term_hexes(compile_pair_terms(tree)(a, b, grid.h, 2 * n, grid.h / d, we, wm))
    if want[-1:] != ["error"]:
        assert got == want
    else:
        assert got[:len(want) - 1] == want[:-1]
        assert got[len(want) - 1] in ("error", "nan", "inf", "-inf")


@pytest.mark.parametrize("n", [997, 4096, 33_333])
@pytest.mark.parametrize("text", VALUE_CORPUS[:3])
def test_fused_pair_loop_matches_streaming_on_corpus(text, n, monkeypatch):
    fused, streaming = _fused_and_streaming(text)
    points = []  # the checked point calls of ``fused``
    call = Integrand.__call__

    def counted(f, x):
        if f is fused:
            points.append(x)
        return call(f, x)

    monkeypatch.setattr(Integrand, "__call__", counted)
    grid = UniformGrid(Interval(-1.0, 2.0), n)
    for rule in (composite_simpson, composite_modified_simpson):
        assert _composite_outcome(rule, fused, grid) == _composite_outcome(rule, streaming, grid)
    assert points == []  # the traced loop gave both sums; nothing was replayed
