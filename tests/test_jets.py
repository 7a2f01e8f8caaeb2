import ast
import json
import math
import os
import platform
import re
import struct
import sys

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import msquad.jets
from helpers import (
    BENCH_FAMILIES,
    CORPUS,
    EDGE_ABSCISSAE,
    EDGE_TREES,
    JET_CORPUS,
    JET_GRID,
    VALUE_CORPUS,
    VALUE_GRID,
    compiled_digests,
    fold_examples,
    mp_value,
    outcome,
    richardson_derivative,
    symbolic_diff,
    to_string,
)
from msquad.errors import DerivativeUnavailableError, EvaluationError
from msquad.expressions import (
    Binary64, Call, Tracer, Var, compile_expression, compile_pair_terms, evaluate, parse,
)
from msquad.jets import ORDER, TaylorJet, compile_jet, derivatives, expression_integrand


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


def test_an_order_0_sqrt_jet_at_zero_is_the_value():
    # an order-0 jet asks for no derivative, so nothing divides by
    # 2*sqrt(a0); every higher order does
    tree = parse("sqrt(x)")
    for x in (0.0, -0.0):
        assert derivatives(tree, x, 0).coeffs[0].hex() == evaluate(tree, x).hex()
        for k in range(1, ORDER + 1):
            with pytest.raises(EvaluationError,
                               match="sqrt not differentiable at non-positive value"):
                derivatives(tree, x, k)


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
    for coeffs in ((), (0.0,) * 8):
        with pytest.raises(ValueError):
            TaylorJet(coeffs)
    with pytest.raises(ValueError):
        TaylorJet((1.0,) + (0.0,) * 6).derivative(7)
    # a jet of order 1 carries f and f' only
    assert TaylorJet((1.0, 2.0)).derivative(1) == 2.0
    with pytest.raises(ValueError, match=r"orders 0\.\.1, got 2"):
        TaylorJet((1.0, 2.0)).derivative(2)
    for order in (-1, 7):
        with pytest.raises(ValueError, match="jet order"):
            derivatives(parse("x"), 0.5, order)
        with pytest.raises(ValueError, match="jet order"):
            compile_jet(parse("x"), order)


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


def _reference(tree, order=ORDER):
    return lambda x: derivatives(tree, x, order).coeffs


def test_the_guard_decides_the_path(monkeypatch):
    # JET_GRID holds the inputs where a simplification could show: signed
    # zeros, infinities, NaN and overflowing values.  A compiled jet calls
    # derivatives where a two-term sum p + q + 0.0 is not finite or a line
    # raises.  At 354.7 both products of exp(x)*exp(x) are finite but their
    # sum is not, so the reference's sum2 falls back to fsum, which raises
    # OverflowError.
    calls = []
    monkeypatch.setattr(msquad.jets, "derivatives",
                        lambda *args: calls.append(args) or derivatives(*args))
    for text in JET_CORPUS + BENCH_FAMILIES + ("exp(x)*exp(x)",):
        tree = parse(text)
        for order in range(ORDER + 1):
            jet, reference = compile_jet(tree, order), _reference(tree, order)
            for x in JET_GRID + (354.7,):
                calls.clear()
                got, want = outcome(jet, x, any_nan=True), outcome(reference, x, any_nan=True)
                assert got == want, (text, order, x)
                fell_back = bool(calls)
                if text == "exp(x)*exp(x)" and x == 354.7 and order > 0:
                    assert fell_back and want[0] is EvaluationError, order
                if text in BENCH_FAMILIES and order > 0:
                    if not math.isfinite(x):
                        assert fell_back, (text, order, x)
                    elif all(isinstance(c, bytes) and math.isfinite(struct.unpack("<d", c)[0])
                             for c in want):
                        assert not fell_back, (text, order, x)


def test_compiled_jets_of_bench_families_carry_no_foldable_arithmetic(monkeypatch):
    # What the tracer's rules remove: products, quotients and sums of two
    # constants, unit factors and divisors, subtracted +0.0 and fsum calls
    # of one or two terms.  The products by 0.0 of run-time values stay:
    # they are NaN where the value is not finite.
    bodies = []
    define = Tracer._define
    monkeypatch.setattr(Tracer, "_define", lambda self, params, body, filename: (
        bodies.append((body, self.constants)) or define(self, params, body, filename)))
    for text in BENCH_FAMILIES:
        for order in range(1, ORDER + 1):
            compile_jet(parse(text), order)
    fsums = 0
    for body, constants in bodies:
        def value(node):
            if isinstance(node, ast.Constant):
                return node.value
            return constants.get(node.id) if isinstance(node, ast.Name) else None

        for node in ast.walk(ast.parse(f"def f():\n{body}")):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "fsum":
                fsums += 1
                assert len(node.args[0].elts) >= 3, ast.unparse(node)
            if isinstance(node, ast.BinOp) and not isinstance(node.op, ast.Pow):
                left, right = value(node.left), value(node.right)
                assert left is None or right is None, ast.unparse(node)
                if isinstance(node.op, ast.Mult):
                    assert 1.0 not in (left, right), ast.unparse(node)
                if isinstance(node.op, ast.Div):
                    assert right != 1.0, ast.unparse(node)
                if isinstance(node.op, ast.Sub) and right == 0.0:
                    assert math.copysign(1.0, right) < 0, ast.unparse(node)
    assert fsums <= 520


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
    changed = [(t, kind) for t in digests for kind in digests[t]
               if digests[t][kind] != golden["digests"][t][kind]]
    assert changed == _DECIDED_FROM_THE_TREE


# The digests that changed when every power came to be decided from its tree.
# An exponent with x in it, or an infinite one, now takes exp(e * log(b))
# after the check b > 0.  The earlier compilers took the integer path where
# the exponent's value (for a jet, its whole jet) was a constant integer, and
# failed on an infinite exponent; the jets of 2^x and x^x never had a
# constant exponent, so they keep their digests.  The six texts are checked
# against independent expectations below instead.
_DECIDED_FROM_THE_TREE = [
    ("x^1e999", "value"), ("x^1e999", "jet"),
    ("2^x", "value"), ("x^x", "value"),
    ("x^-1e999", "value"), ("x^-1e999", "jet"),
    ("x^(x-x)", "value"), ("x^(x-x)", "jet"),
    ("x^(x-x-2)", "value"), ("x^(x-x-2)", "jet"),
]

# Their base b and exponent e at x, as Python computes them.
_EXP_LOG_POWERS = {
    "x^1e999": lambda x: (x, math.inf),
    "x^-1e999": lambda x: (x, -math.inf),
    "x^(x-x)": lambda x: (x, x - x),
    "x^(x-x-2)": lambda x: (x, x - x - 2.0),
    "2^x": lambda x: (2.0, x),
    "x^x": lambda x: (x, x),
}


def _exp_log(text, x):
    b, e = _EXP_LOG_POWERS[text](x)
    if b <= 0.0:
        raise EvaluationError(f"non-integer power of a non-positive base {b!r}", x)
    try:
        return math.exp(e * math.log(b))
    except OverflowError:
        raise EvaluationError("overflow during evaluation", x) from None


@pytest.mark.parametrize("text", list(_EXP_LOG_POWERS))
def test_powers_decided_from_the_tree_take_exp_log(text):
    tree = parse(text)
    fn, jet = compile_expression(tree), compile_jet(tree)
    for x in VALUE_GRID:
        assert outcome(fn, x) == outcome(lambda x: _exp_log(text, x), x), x
    for x in JET_GRID:
        b, e = _EXP_LOG_POWERS[text](x)
        if b <= 0.0:
            assert outcome(jet, x) == outcome(lambda x: _exp_log(text, x), x), x
        elif math.isinf(e) and 0.0 < x < math.inf:
            # no Taylor series: the value, and no finite coefficient above it
            try:
                got = jet(x)
            except ValueError as exc:
                assert str(exc).endswith(" in fsum"), x
                continue
            assert outcome(lambda x: got[0], x) == outcome(lambda x: _exp_log(text, x), x), x
            assert not any(map(math.isfinite, got[1:])), (x, got)
    for x in (0.25, 0.5, 1.0, 1.5, 2.0):
        if math.isfinite(_EXP_LOG_POWERS[text](x)[1]):
            with mpmath.workdps(50):
                want = [float(c) for c in mpmath.taylor(lambda t: mp_value(tree, t),
                                                         mpmath.mpf(x), ORDER)]
            tol = 1e-12 * max(1.0, *map(abs, want))
            assert all(abs(g - w) <= tol for g, w in zip(jet(x), want)), (x, want)


def test_generated_code_has_no_checks(monkeypatch):
    # On floats each checked operation raises by itself, and wherever a line
    # raises the walker decides the point, so no generated body raises,
    # names EvaluationError or tests a value; the one "if " line allowed is
    # a jet's finiteness guard of its two-term sums.
    bodies = []
    define = Tracer._define
    monkeypatch.setattr(Tracer, "_define", lambda self, params, body, filename: (
        bodies.append(body) or define(self, params, body, filename)))
    texts = dict.fromkeys(VALUE_CORPUS + JET_CORPUS + BENCH_FAMILIES)
    for text in texts:
        tree = parse(text)
        compile_expression(tree)
        compile_pair_terms(tree)
        for k in range(ORDER + 1):
            compile_jet(tree, k)
    assert len(bodies) == (ORDER + 3) * len(texts)
    for body in bodies:
        assert "raise" not in body and "EvaluationError" not in body, body
        tests = [line.strip() for line in body.splitlines() if line.strip().startswith("if ")]
        assert len(tests) <= 1 and all(t.startswith("if isfinite(") for t in tests), body


def test_derivatives_adds_two_terms_without_fsum(monkeypatch):
    # A two-term sum is the scalar arithmetic's sum2: p + q + 0.0 where
    # that is finite, and math.fsum only where it is not.
    calls = []
    fsum = math.fsum

    def spy(terms):
        terms = tuple(terms)
        if len(terms) == 2 and all(map(math.isfinite, terms)) and math.isfinite(sum(terms)):
            calls.append(terms)
        return fsum(terms)

    monkeypatch.setattr(math, "fsum", spy)
    monkeypatch.setattr(Binary64, "fsum", staticmethod(spy))
    for text in JET_CORPUS + BENCH_FAMILIES:
        tree = parse(text)
        for x in filter(math.isfinite, JET_GRID):
            try:
                derivatives(tree, x)
            except Exception:
                pass
    assert calls == []


def test_compiled_code_never_calls_a_walker():
    # every decision is made when traced, so no compiled function needs the
    # float arithmetic or a walker at run time; a jet's guard hands a whole
    # point to derivatives through its default argument `reference`
    walkers = {"Binary64", "_power", "_pow"}
    for text in VALUE_CORPUS + JET_CORPUS:
        tree = parse(text)
        for fn in (compile_expression(tree), compile_pair_terms(tree),
                   *(compile_jet(tree, k) for k in range(ORDER + 1))):
            assert not walkers & set(fn.__code__.co_varnames), text


@settings(max_examples=300, deadline=None)
@given(EDGE_TREES, st.lists(st.one_of(EDGE_ABSCISSAE, st.just(math.nan)),
                            min_size=1, max_size=4))
@fold_examples
def test_compiled_jet_matches_propagation_bitwise(tree, xs):
    for order in range(ORDER + 1):
        jet = compile_jet(tree, order)  # compiling never raises: errors belong to points
        for x in xs:
            want = outcome(lambda x: derivatives(tree, x, order).coeffs, x, any_nan=True)
            assert outcome(jet, x, any_nan=True) == want, order


@settings(max_examples=300, deadline=None)
@given(EDGE_TREES, st.lists(EDGE_ABSCISSAE, min_size=1, max_size=4))
def test_truncated_jet_is_prefix_of_full_jet(tree, xs):
    # Coefficient j of each recurrence reads input coefficients 0..j only,
    # and a power's path depends on its tree alone.
    for x in xs:
        try:
            full = derivatives(tree, x).coeffs
        except (EvaluationError, ArithmeticError, ValueError):
            continue
        for k in range(ORDER + 1):
            got = outcome(lambda x: derivatives(tree, x, k).coeffs, x, any_nan=True)
            assert got == outcome(lambda x: full[:k + 1], x, any_nan=True), k


def test_varying_exponent_needs_a_positive_base_at_every_order():
    # the exponent 2 + (x-1)^3 is flat up to order 2 at 1, where it is the
    # integer 2; it still varies, so the base -1 is refused at every order
    tree = parse("(x-2)^(2+(x-1)^3)")
    for order in range(ORDER + 1):
        for jet in (lambda x: derivatives(tree, x, order), compile_jet(tree, order)):
            with pytest.raises(EvaluationError, match="non-integer power of a non-positive base"):
                jet(1.0)


def test_expression_integrand_compiles_one_jet_per_order_asked(monkeypatch):
    compiled = []

    def counting(expr, order):
        compiled.append((expr, order))
        return compile_jet(expr, order)

    monkeypatch.setattr(msquad.jets, "compile_jet", counting)
    f = expression_integrand("exp(-x^2)*sin(3*x)", df_text="cos(x)")
    f(0.5)
    f.derivative(1, 0.5)  # the override needs no jet
    assert compiled == []
    tree = parse("exp(-x^2)*sin(3*x)")
    for k in (5, 2, 5, 6, 2, 3, 4, 6, 3):
        for x in (0.5, 0.25):
            assert f.derivative(k, x) == derivatives(tree, x).derivative(k)
    assert compiled == [(tree, k) for k in (5, 2, 6, 3, 4)]
    expression_integrand("exp(-x^2)*sin(3*x)").derivative(1, 0.5)
    assert compiled[-1] == (tree, 1)


def test_lower_order_survives_overflow_in_higher_coefficient():
    # exp(c*x)^2 at x = 1e-60: c0 = 1, c1 = 2c, but c6 = (2c)^6/720 overflows
    f = expression_integrand("exp(4.4e51*x)^2")
    assert f.derivative(1, 1e-60) == 2 * 4.4e51 * f(1e-60)
    with pytest.raises(EvaluationError, match="overflow during derivative propagation"):
        f.derivative(6, 1e-60)


@pytest.mark.parametrize("node", ["x", Call("foo", Var())], ids=["text", "unknown-call"])
@pytest.mark.parametrize("walk", [evaluate, derivatives], ids=["evaluate", "derivatives"])
def test_walkers_reject_what_is_not_an_expression_node(walk, node):
    with pytest.raises(TypeError, match=f"^not an expression node: {re.escape(repr(node))}$"):
        walk(node, 0.5)
