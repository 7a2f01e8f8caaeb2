import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import (EDGE_ABSCISSAE, EDGE_TREES, VALUE_CORPUS, VALUE_GRID, fold_examples, outcome,
                     to_string)
from msquad.errors import EvaluationError, ParseError
from msquad.expressions import (
    BinOp,
    Call,
    Const,
    Neg,
    Num,
    Tracer,
    Var,
    _MAX_DEPTH,
    _value,
    compile_expression,
    compile_pair_terms,
    evaluate,
    parse,
)
from msquad.jets import compile_jet, derivatives


def test_parse_structure_of_gaussian():
    tree = parse("exp(-x^2)")
    assert tree == Call("exp", Neg(BinOp("^", Var(), Num(2.0))))


def test_two_pi_evaluates():
    tree = parse("2*pi")
    assert tree == BinOp("*", Num(2.0), Const("pi"))
    assert evaluate(tree, 0.0) == pytest.approx(6.283185307179586, rel=1e-15)


def test_unterminated_call_reports_offset():
    with pytest.raises(ParseError) as exc:
        parse("exp(")
    assert exc.value.offset == 4
    assert exc.value.text == "exp("


def test_parse_error_cases():
    with pytest.raises(ParseError):
        parse("2 +")
    with pytest.raises(ParseError) as exc:
        parse("2 + y")
    assert exc.value.offset == 4
    with pytest.raises(ParseError):
        parse("sin 3")  # function requires parentheses
    with pytest.raises(ParseError):
        parse("(1 + 2")
    with pytest.raises(ParseError):
        parse("1 2")
    with pytest.raises(ParseError):
        parse("3 @ 4")


@pytest.mark.parametrize("text, char, offset", [
    ("²", "²", 0), ("x+³", "³", 2), ("١", "١", 0), ("xé", "é", 1),
])
def test_non_ascii_is_an_unexpected_character(text, char, offset):
    # str.isdigit and str.isalpha take these; the grammar's ASCII rules do not
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == f"unexpected character {char!r} (at offset {offset})"
    assert (exc.value.offset, exc.value.text) == (offset, text)


@settings(max_examples=300)
@given(st.text())
@example("²")
def test_parse_returns_a_tree_or_raises_parse_error(text):
    try:
        tree = parse(text)
    except ParseError:
        return
    assert isinstance(tree, (Num, Var, Const, Neg, BinOp, Call))


# text nested k levels deep, and the offset of the error one level deeper
_NESTINGS = {
    "parentheses": (lambda k: "(" * k + "x" + ")" * k, 101),
    "sum": (lambda k: "+".join(["x"] * (k + 1)), 201),
    "minus": (lambda k: "-" * k + "x", 101),
    "power": (lambda k: "^".join(["1"] * (k + 1)), 202),
    "call": (lambda k: "sin(" * k + "x" + ")" * k, 404),
}


@pytest.mark.parametrize("shape", _NESTINGS)
def test_nesting_bound(shape):
    nested, offset = _NESTINGS[shape]
    tree = parse(nested(_MAX_DEPTH))
    # every walk of a tree at the bound runs
    assert parse(to_string(tree)) == tree
    value = evaluate(tree, 0.5)
    assert compile_expression(tree)(0.5) == value
    assert compile_jet(tree)(0.5)[0] == derivatives(tree, 0.5).value == value
    pair_terms = compile_pair_terms(tree)(0.5, 0.5, 0.0, 2, 1.0, 1.0, 4.0)
    assert list(pair_terms) == [value + 4.0 * value + value]
    for k in (_MAX_DEPTH + 1, 5000):
        with pytest.raises(ParseError) as exc:
            parse(nested(k))
        assert str(exc.value) == f"expression nested deeper than 100 levels (at offset {offset})"


def test_precedence_and_associativity():
    assert evaluate(parse("-x^2"), 3.0) == -9.0
    assert evaluate(parse("(-x)^2"), 3.0) == 9.0
    assert evaluate(parse("2^3^2"), 0.0) == 512.0
    assert evaluate(parse("2^-2"), 0.0) == 0.25
    assert evaluate(parse("2-3-4"), 0.0) == -5.0
    assert evaluate(parse("12/3/2"), 0.0) == 2.0
    assert evaluate(parse("1+2*3"), 0.0) == 7.0
    assert evaluate(parse("2e-3"), 0.0) == 0.002
    assert evaluate(parse("2*e"), 0.0) == 2.0 * math.e


def test_evaluate_examples():
    assert evaluate(parse("exp(-x^2)"), 0.0) == 1.0
    assert evaluate(parse("exp(x)"), 1.0) == math.e
    assert evaluate(parse("sqrt(x)"), 4.0) == 2.0
    assert evaluate(parse("tan(x)"), 0.25) == math.tan(0.25)


def test_evaluate_domain_errors_carry_abscissa():
    with pytest.raises(EvaluationError) as exc:
        evaluate(parse("1/x"), 0.0)
    assert exc.value.abscissa == 0.0
    with pytest.raises(EvaluationError):
        evaluate(parse("log(x)"), -1.0)
    with pytest.raises(EvaluationError):
        evaluate(parse("sqrt(x)"), -4.0)
    with pytest.raises(EvaluationError):
        evaluate(parse("x^0.5"), -2.0)
    with pytest.raises(EvaluationError):
        evaluate(parse("x^-1"), 0.0)
    with pytest.raises(EvaluationError):
        evaluate(parse("exp(x)"), 1e9)  # overflow


def test_roundtrip_corpus():
    corpus = [
        "exp(-x^2)",
        "1/(1+x^2)",
        "sin(x)*cos(2*x)",
        "-x^2 + 3*x - 1",
        "x^-2",
        "sqrt(1+x^2)",
        "2^3^x",
        "(x+1)/(x-2)/(x+3)",
        "tan(x/4) - log(x+5)",
        "-(x+1)^2",
    ]
    for text in corpus:
        tree = parse(text)
        assert parse(to_string(tree)) == tree, text


_leaves = st.one_of(
    st.builds(Num, st.floats(min_value=0.001, max_value=100.0)),
    st.just(Var()),
    st.builds(Const, st.sampled_from(["pi", "e"])),
)

_trees = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.builds(Neg, kids),
        st.builds(Call, st.sampled_from(["exp", "log", "sin", "cos", "tan", "sqrt"]), kids),
        st.builds(BinOp, st.sampled_from(list("+-*/^")), kids, kids),
    ),
    max_leaves=12,
)


@given(_trees)
def test_roundtrip_property(tree):
    assert parse(to_string(tree)) == tree


def test_negated_exponent_prints_bare():
    assert to_string(parse("x^-(x+1)^-2")) == "x^-(x+1.0)^-2.0"
    tree = parse("2^-" * 40 + "x")  # 80 levels; parenthesised it would be 120
    assert to_string(tree) == "2.0^-" * 40 + "x"
    assert parse(to_string(tree)) == tree


# Text nested one or two levels deeper per piece: each piece opens before
# the innermost leaf and closes after it.
_PIECES = (("-", ""), ("2^-", ""), ("x^", ""), ("exp(", ")"), ("(", ")"), ("x+", ""),
           ("x-(", ")"), ("(", "*x)"), ("(", ")^-2"), ("x/", ""), ("2^-(", "+x)"))


def _nest(pieces: list, leaf: str) -> str:
    return "".join(p for p, _ in pieces) + leaf + "".join(c for _, c in reversed(pieces))


# Each text draws its piece count uniformly and its pieces from a few kinds,
# so that long runs of one kind occur.
_deep_texts = st.builds(
    _nest,
    st.tuples(st.integers(0, 80), st.sets(st.sampled_from(_PIECES), min_size=1)).flatmap(
        lambda size_kinds: st.lists(
            st.sampled_from(sorted(size_kinds[1])), min_size=size_kinds[0], max_size=size_kinds[0]
        )
    ),
    st.sampled_from(["x", "2", "pi"]),
)


@given(_deep_texts)
@example("2^-" * 50 + "x")
def test_roundtrip_property_on_deep_texts(text):
    # any text within the nesting bound reprints within it
    try:
        tree = parse(text)
    except ParseError:
        assume(False)
    assert parse(to_string(tree)) == tree


# -- compiled evaluation -----------------------------------------------------


def test_compiled_matches_walk_on_corpus_grid():
    for text in VALUE_CORPUS:
        tree = parse(text)
        fn = compile_expression(tree)
        for x in VALUE_GRID:
            assert outcome(fn, x) == outcome(lambda v: evaluate(tree, v), x), (text, x)


def test_tracer_binds_each_expression_once():
    tracer = Tracer()
    square = tracer.let("x ** 2")
    assert tracer.let("x ** 2") == square
    cube = tracer.let("x ** 3")
    assert cube != square
    assert tracer.let(f"{square} + {cube}") != tracer.let(f"{cube} + {square}")
    assert tracer.lines == [f"{square} = x ** 2", f"{cube} = x ** 3",
                            f"t2 = {square} + {cube}", f"t3 = {cube} + {square}"]


def test_tracer_shares_equal_constants_and_checks():
    tracer = Tracer()
    result = _value(tracer, parse("x/(1+x^2)+1/(1+x^2)"), "x")
    one = tracer.const(1.0)
    assert tracer.const(-0.0) != tracer.const(0.0)
    # both divisions check t1, and a check renders no line
    assert tracer.lines == [
        "t0 = x * x", f"t1 = {one} + t0",
        "t2 = x / t1", f"t3 = {one} / t1", f"{result} = t2 + t3",
    ]


@settings(max_examples=400)
@given(EDGE_TREES, st.lists(EDGE_ABSCISSAE, min_size=1, max_size=6))
@fold_examples
def test_compiled_matches_walk_bitwise(tree, xs):
    fn = compile_expression(tree)  # compiling never raises: errors belong to points
    for x in xs:
        assert outcome(fn, x) == outcome(lambda v: evaluate(tree, v), x)


# -- squares -----------------------------------------------------------------


def _point_ways(text: str) -> dict:
    """Each way to get the value of ``text`` at one point: the walk, the
    compiled function, the compiled pair loop (a pair term whose end weights
    are 0 is its midpoint value) and the value coefficients of both jets."""
    tree = parse(text)
    fn, terms, jet = compile_expression(tree), compile_pair_terms(tree), compile_jet(tree)
    return {"evaluate": lambda x: evaluate(tree, x), "compiled": fn,
            "pair terms": lambda x: list(terms(x, x, 0.0, 2, 1.0, 0.0, 1.0))[0],
            "jet": lambda x: jet(x)[0], "derivatives": lambda x: derivatives(tree, x).value}


_SQUARE, _PRODUCT = _point_ways("x^2"), _point_ways("x*x")


def test_square_is_correctly_rounded_where_pow_is_not():
    # seeded points of [-10, 10] where libm's pow(x, 2) is off by an ulp
    # (about 0.085% of them with glibc), and one such point found beforehand
    rng = random.Random(17)
    xs = (rng.uniform(-10.0, 10.0) for _ in range(100_000))
    for x in [float.fromhex("0x1.38827bdc114d0p+2"), *(x for x in xs if x ** 2 != x * x)]:
        want = float(Fraction(x) ** 2)
        assert {way: fn(x) for way, fn in _SQUARE.items()} == dict.fromkeys(_SQUARE, want), x


@settings(max_examples=300)
@given(st.floats())
@example(0.0)
@example(-0.0)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(1e200)
@example(-1e200)
def test_square_behaves_as_a_product(x):
    for way, fn in _SQUARE.items():
        assert outcome(fn, x, any_nan=True) == outcome(_PRODUCT[way], x, any_nan=True), way


@pytest.mark.parametrize("text, want", [
    ("x^2", math.inf), ("-x^2", -math.inf), ("exp(-x^2)", 0.0), ("1/(1+x^2)", 0.0),
])
def test_square_of_a_large_value_is_infinite_not_an_error(text, want):
    # as x*x at 1e200 already is: only pow raises OverflowError
    tree = parse(text)
    assert evaluate(tree, 1e200) == compile_expression(tree)(1e200) == want


def test_other_integer_powers_still_raise_on_overflow():
    tree = parse("x^3")
    for fn in (lambda x: evaluate(tree, x), compile_expression(tree)):
        with pytest.raises(EvaluationError, match="overflow during evaluation"):
            fn(1e200)
