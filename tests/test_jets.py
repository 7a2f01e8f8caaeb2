import json
import math
import os
import platform
import sys

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import msquad.jets
from helpers import (
    CORPUS,
    EDGE_ABSCISSAE,
    EDGE_TREES,
    JET_CORPUS,
    JET_GRID,
    compiled_digests,
    mp_value,
    outcome,
    richardson_derivative,
    symbolic_diff,
)
from msquad.errors import DerivativeUnavailableError, EvaluationError
from msquad.expressions import evaluate, parse, to_string
from msquad.jets import TaylorJet, compile_jet, derivatives, expression_integrand


def test_jet_examples():
    assert derivatives(parse("exp(x)"), 1.0).derivative(5) == pytest.approx(
        math.e, rel=1e-15
    )
    assert derivatives(parse("x^6"), 1.0).derivative(5) == pytest.approx(
        720.0, rel=1e-15
    )
    assert derivatives(parse("sin(x)"), 0.0).derivative(3) == pytest.approx(
        -1.0, rel=1e-15
    )


def test_jet_value_matches_plain_evaluation():
    for fn in CORPUS:
        tree = parse(fn.text)
        for x in (0.0, 0.3, 0.85, 1.0):
            assert derivatives(tree, x).value == pytest.approx(
                evaluate(tree, x), rel=1e-14
            )


@pytest.mark.parametrize("fn", CORPUS, ids=lambda c: c.name)
def test_jets_match_hand_symbolic_derivatives(fn):
    tree = parse(fn.text)
    for x in (0.0, 0.2, 0.5, 0.77, 1.0):
        jet = derivatives(tree, x)
        for k in range(0, 7):
            want = fn.derivs[k](x)
            got = jet.derivative(k)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (k, x)


@pytest.mark.parametrize("fn", CORPUS, ids=lambda c: c.name)
def test_jets_match_richardson_finite_differences(fn):
    tree = parse(fn.text)
    for x in (0.21, 0.5, 0.83):
        jet = derivatives(tree, x)
        for k in range(1, 7):
            fd = richardson_derivative(fn.mp_fn, x, k)
            got = jet.derivative(k)
            assert abs(got - fd) <= 1e-6 * max(1.0, abs(fd)), (k, x)


def test_jet_of_symbolic_derivative_is_shifted_jet():
    for text in ("exp(-x^2)", "sin(x)*exp(x)", "1/(1+x^2)", "sqrt(1+x^2)", "x^5"):
        tree = parse(text)
        dtree = symbolic_diff(tree)
        for x in (0.1, 0.6, 1.3):
            jet = derivatives(tree, x)
            djet = derivatives(dtree, x)
            for k in range(0, 6):
                a = djet.derivative(k)
                b = jet.derivative(k + 1)
                assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b)), (text, x, k)


_safe_leaves = st.one_of(
    st.builds(lambda v: parse(repr(v)), st.floats(min_value=0.25, max_value=4.0)),
    st.just(parse("x")),
)


def _safe_ops(kids):
    return [
        st.builds(lambda a, b: parse(f"({to_string(a)})+({to_string(b)})"), kids, kids),
        st.builds(lambda a, b: parse(f"({to_string(a)})*({to_string(b)})"), kids, kids),
        st.builds(lambda a: parse(f"sin({to_string(a)})"), kids),
        st.builds(lambda a: parse(f"cos({to_string(a)})"), kids),
        st.builds(lambda a: parse(f"exp(-({to_string(a)})^2)"), kids),
        st.builds(lambda a: parse(f"sqrt(4+({to_string(a)})^2)"), kids),
    ]


_safe_trees = st.recursive(_safe_leaves, lambda kids: st.one_of(*_safe_ops(kids)), max_leaves=6)

# Every recurrence: division, log, the unrolled power and tan on top.
_oracle_trees = st.recursive(
    _safe_leaves,
    lambda kids: st.one_of(
        *_safe_ops(kids),
        st.builds(lambda a, b: parse(f"({to_string(a)})/(1+({to_string(b)})^2)"), kids, kids),
        st.builds(lambda a: parse(f"log(1+({to_string(a)})^2)"), kids),
        st.builds(lambda a: parse(f"({to_string(a)})^3"), kids),
        st.builds(lambda a: parse(f"tan(sin({to_string(a)})/2)"), kids),
    ),
    max_leaves=6,
)


@settings(max_examples=60, deadline=None)
@given(_safe_trees, st.floats(min_value=0.1, max_value=1.5))
def test_chain_rule_property(tree, x):
    # jets of the symbolically differentiated tree must agree with the
    # shifted jet of the original tree (product/chain rule consistency)
    jet = derivatives(tree, x)
    djet = derivatives(symbolic_diff(tree), x)
    for k in range(0, 6):
        a = jet.derivative(k + 1)
        b = djet.derivative(k)
        assert abs(a - b) <= 1e-6 * max(1.0, abs(a), abs(b))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_oracle_trees, st.floats(min_value=0.1, max_value=1.5))
def test_jets_match_mpmath_taylor(tree, x):
    # mpmath differentiates the tree numerically at 50 digits, with none of
    # the recurrences that both the reference and the compiled jet run
    with mpmath.workdps(50):
        want = [float(c) for c in mpmath.taylor(lambda t: mp_value(tree, t), mpmath.mpf(x), 6)]
    tol = 1e-12 * max(1.0, *map(abs, want))
    for got in (derivatives(tree, x).coeffs, compile_jet(tree)(x)):
        assert all(abs(g - w) <= tol for g, w in zip(got, want)), (to_string(tree), x, got, want)


def test_sqrt_not_differentiable_at_zero():
    with pytest.raises(EvaluationError):
        derivatives(parse("sqrt(x)"), 0.0)


def test_domain_errors_in_jets():
    with pytest.raises(EvaluationError):
        derivatives(parse("log(x)"), -0.5)
    with pytest.raises(EvaluationError):
        derivatives(parse("1/x"), 0.0)
    with pytest.raises(EvaluationError):
        derivatives(parse("x^0.5"), -1.0)


@pytest.mark.parametrize(
    "text, x, message",
    [
        # 1e-160^-2 overflows, and a recurrence's fsum meets inf - inf
        ("x^-2", 1e-160, "derivative of order {k} is non-finite"),
        # the sine of an infinite value, which the point path reports alike
        ("sin(1e200*1e200*x)", 0.0625, "math domain error"),
    ],
    ids=["fsum-inf-minus-inf", "sin-of-inf"],
)
def test_jet_value_errors_name_the_point(text, x, message):
    f = expression_integrand(text)
    for k in range(1, 7):
        with pytest.raises(EvaluationError) as exc:
            f.derivative(k, x)
        assert str(exc.value) == f"{message.format(k=k)} (at x = {x!r})"


def test_negative_integer_powers():
    jet = derivatives(parse("x^-2"), 2.0)
    # d/dx x^-2 = -2 x^-3
    assert jet.derivative(1) == pytest.approx(-2.0 / 8.0, rel=1e-14)
    assert jet.derivative(2) == pytest.approx(6.0 / 16.0, rel=1e-14)


def test_real_power_via_exp_log():
    jet = derivatives(parse("x^1.5"), 4.0)
    assert jet.value == pytest.approx(8.0, rel=1e-14)
    assert jet.derivative(1) == pytest.approx(1.5 * 2.0, rel=1e-14)
    assert jet.derivative(2) == pytest.approx(0.75 / 2.0, rel=1e-13)


def test_jet_constructor_validation():
    with pytest.raises(ValueError):
        TaylorJet((1.0, 2.0))
    with pytest.raises(ValueError):
        TaylorJet((1.0,) + (0.0,) * 6).derivative(7)


def test_expression_integrand_derivative_orders():
    f = expression_integrand("exp(-x^2)")
    assert f.max_order == 6
    assert f(0.5) == math.exp(-0.25)
    assert f.derivative(0, 0.5) == f(0.5)
    gauss = CORPUS[1]
    for k in range(1, 7):
        assert f.derivative(k, 0.5) == pytest.approx(gauss.derivs[k](0.5), rel=1e-12)
    with pytest.raises(ValueError):
        f.derivative(-1, 0.5)


def test_expression_integrand_df_override():
    f = expression_integrand("exp(x)", df_text="cos(x)")
    assert f.derivative(1, 0.3) == math.cos(0.3)
    assert f.derivative(2, 0.3) == pytest.approx(math.exp(0.3), rel=1e-14)


def test_bare_callback_has_no_derivatives():
    from msquad.integrand import Integrand

    f = Integrand(lambda x: x)
    with pytest.raises(DerivativeUnavailableError):
        f.derivative(1, 0.0)


# -- compiled jets -------------------------------------------------------------


def _reference(tree):
    return lambda x: derivatives(tree, x).coeffs


def test_compiled_jet_matches_propagation_on_corpus_grid():
    for text in JET_CORPUS:
        tree = parse(text)
        jet = compile_jet(tree)
        for x in JET_GRID:
            got, want = outcome(jet, x, any_nan=True), outcome(_reference(tree), x, any_nan=True)
            assert got == want, (text, x)


def test_compiled_code_matches_golden_of_earlier_compilers():
    # Both compilers now trace the same walkers as the reference, so the
    # reference cannot vouch for them; the golden digests were taken from
    # the separately written compilers they replace.
    path = os.path.join(os.path.dirname(__file__), "data", "compiled_golden.json")
    with open(path, encoding="utf-8") as fh:
        golden = json.load(fh)
    here = {"implementation": sys.implementation.name,
            "python": "%d.%d" % sys.version_info[:2],
            "machine": platform.machine(),
            "libc": "-".join(platform.libc_ver())}
    if here != golden["platform"]:
        pytest.skip(f"golden digests were taken on {golden['platform']}; libm may round differently here")
    digests = compiled_digests()
    assert list(digests) == list(golden["digests"])
    assert [t for t in digests if digests[t] != golden["digests"][t]] == []


@settings(max_examples=300, deadline=None)
@given(EDGE_TREES, st.lists(st.one_of(EDGE_ABSCISSAE, st.just(math.nan)),
                            min_size=1, max_size=4))
def test_compiled_jet_matches_propagation_bitwise(tree, xs):
    jet = compile_jet(tree)  # compiling never raises: errors belong to points
    for x in xs:
        assert outcome(jet, x, any_nan=True) == outcome(_reference(tree), x, any_nan=True)


def test_expression_integrand_compiles_its_jet_on_first_derivative(monkeypatch):
    compiled = []

    def counting(expr):
        compiled.append(expr)
        return compile_jet(expr)

    monkeypatch.setattr(msquad.jets, "compile_jet", counting)
    f = expression_integrand("exp(-x^2)*sin(3*x)", df_text="cos(x)")
    f(0.5)
    f.derivative(1, 0.5)  # the override needs no jet
    assert compiled == []
    tree = parse("exp(-x^2)*sin(3*x)")
    for k in range(2, 7):
        assert f.derivative(k, 0.5) == derivatives(tree, 0.5).derivative(k)
    assert compiled == [tree]
