"""Shared oracles for the test suite.

Everything here is deliberately independent of the library code paths it
checks: exact rational arithmetic for the rule formulas, for the Peano
kernels (derived from the rule, not read from the package) and their
integrals, hand-coded symbolic derivatives for the corpus functions,
Richardson-extrapolated finite differences, a tree differentiator for
the expression AST, a printer that turns a tree back into text, a tree
walker in mpmath arithmetic, and a kept copy of the list-based G7/K15
segment formula the oracle's unrolled sums must match bit for bit.  The
edge-case trees and the compile corpora at the end drive the properties
that compare compiled code with the tree walks and with the golden
digests of an earlier, separately written compiler.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from hypothesis import example, strategies as st

from msquad.expressions import (
    _NEG_PRECEDENCE,
    _PRECEDENCE,
    BinOp,
    Call,
    Const,
    Expression,
    Neg,
    Num,
    Var,
)
from msquad.integrand import Integrand
from msquad.reference import _EPS, _WG, _WGK
from msquad.rules import _finite

F = Fraction


# -- exact polynomial calculus (coefficients ascending by power) -------------


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_derivative(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(i * c for i, c in enumerate(coeffs) if i >= 1)


def poly_nth_derivative(coeffs: Sequence[Fraction], n: int) -> tuple[Fraction, ...]:
    out = tuple(coeffs)
    for _ in range(n):
        out = poly_derivative(out) or (F(0),)
    return out


def poly_integral(coeffs: Sequence[Fraction], lo: Fraction, hi: Fraction) -> Fraction:
    total = F(0)
    for i, c in enumerate(coeffs):
        total += c * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)
    return total


class PeanoKernel(NamedTuple):
    """One error kernel: exact branch coefficients plus its sign factor,
    ``T_k = sign * left_poly`` on [0, 1/2) and ``sign * right_poly`` on [1/2, 1]."""

    k: int
    left_poly: tuple[Fraction, ...]
    right_poly: tuple[Fraction, ...]
    sign: int


def kernel(k: int) -> PeanoKernel:
    """T_k derived from the rule itself: the error ``E(f) = integral_0^1 f - Q(f)``
    of ``Q(f) = (7 f(0) + 16 f(1/2) + 7 f(1))/30 - (f'(1) - f'(0))/60``
    applied to ``f(x) = (x - t)_+^(k-1)/(k-1)!`` gives, for 0 < t < 1,

        T_k(t) = [(1-t)^k/k - (7/30)(1-t)^(k-1) - (16/30)(1/2-t)^(k-1) [t < 1/2]
                  + ((k-1)/60)(1-t)^(k-2)] / (k-1)!

    expanded here in exact arithmetic, coefficients ascending by power.  The
    branches are kept unsigned, ``P_k = sign * T_k`` on [0, 1/2) and ``Q_k``
    on [1/2, 1]: their roots are those of T_k, their leading terms 1/k!."""
    sign = (-1) ** k

    def power(c: Fraction, m: int) -> list[Fraction]:  # (c - t)^m
        return [math.comb(m, i) * c ** (m - i) * (-1) ** i for i in range(m + 1)]

    def branch(left: bool) -> tuple[Fraction, ...]:
        terms = [(F(1, k), F(1), k), (F(-7, 30), F(1), k - 1), (F(k - 1, 60), F(1), k - 2)]
        if left:
            terms.append((F(-16, 30), F(1, 2), k - 1))
        out = [F(0)] * (k + 1)
        for scale, c, m in terms:
            for i, a in enumerate(power(c, m)):
                out[i] += scale * a
        return tuple(sign * c / math.factorial(k - 1) for c in out)

    return PeanoKernel(k, branch(True), branch(False), sign)


def exact_branch_integral(k: int, j: int) -> Fraction:
    """Integral of T_k(x) x^j over [0, 1] by Fraction antiderivatives of the
    kernel's exact branch polynomials."""
    ker = kernel(k)
    total = F(0)
    for poly, lo, hi in ((ker.left_poly, F(0), F(1, 2)), (ker.right_poly, F(1, 2), F(1))):
        shifted = (F(0),) * j + tuple(poly)
        total += poly_integral(shifted, lo, hi)
    return ker.sign * total


def poly_integrand(coeffs: Sequence[float], name: str = "poly") -> Integrand:
    """Integrand backed by direct coefficient calculus (no AD involved)."""
    fcoeffs = tuple(float(c) for c in coeffs)

    def horner(cs: Sequence[float], x: float) -> float:
        acc = 0.0
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    tables = [fcoeffs]
    for _ in range(6):
        prev = tables[-1]
        tables.append(tuple(i * c for i, c in enumerate(prev) if i >= 1) or (0.0,))

    return Integrand(
        lambda x: horner(tables[0], x),
        lambda order, x: horner(tables[order], x),
        max_order=6,
        name=name,
    )


# -- exact rule arithmetic ----------------------------------------------------


def exact_modified_simpson_panel(
    coeffs: Sequence[Fraction], a: Fraction, b: Fraction
) -> Fraction:
    w = b - a
    m = a + w / 2
    d = poly_derivative(tuple(coeffs)) or (F(0),)
    weighted = w / 30 * (
        7 * poly_eval(coeffs, a) + 16 * poly_eval(coeffs, m) + 7 * poly_eval(coeffs, b)
    )
    correction = w * w / 60 * (poly_eval(d, b) - poly_eval(d, a))
    return weighted - correction


def exact_modified_simpson_error(
    coeffs: Sequence[Fraction], a: Fraction, b: Fraction
) -> Fraction:
    """True error (integral minus rule) of the corrected panel rule."""
    return poly_integral(coeffs, a, b) - exact_modified_simpson_panel(coeffs, a, b)


def exact_simpson_composite(
    coeffs: Sequence[Fraction], a: Fraction, b: Fraction, n_pairs: int
) -> Fraction:
    h = (b - a) / (2 * n_pairs)
    total = F(0)
    for j in range(1, 2 * n_pairs, 2):
        total += (
            poly_eval(coeffs, a + (j - 1) * h)
            + 4 * poly_eval(coeffs, a + j * h)
            + poly_eval(coeffs, a + (j + 1) * h)
        )
    return h / 3 * total


# -- one G7/K15 segment, list by list ------------------------------------------


def dqk15_reference(
    samples: Sequence[float], lo: float, hi: float
) -> tuple[float, float, float, float]:
    """(value, error estimate, rounding floor, fixed floor) of one G7/K15
    segment on [lo, hi] from its 15 samples, in sampling order: (below,
    above) at each node but the centre, outermost first, then the centre.

    The formula is the list-based one the oracle used before its sums were
    written out term by term, kept as it was so the two can be compared bit
    for bit; only the sampling is replaced by ``samples``.
    """
    pairs = [(samples[2 * i], samples[2 * i + 1]) for i in range(7)]
    fc = samples[14]
    if pairs.count((fc, fc)) == 7:
        # flat samples: the embedded pair is exact, difference estimate is 0
        return _finite(pairs[0][0] * (hi - lo), "reference value"), 0.0, 0.0, 0.0

    scale = 0.5 * (hi - lo)
    resk = math.fsum([w * (a + b) for w, (a, b) in zip(_WGK, pairs)] + [_WGK[7] * fc])
    resg = math.fsum([w * (a + b) for w, (a, b) in zip(_WG, pairs[1::2])] + [_WG[3] * fc])
    value = resk * scale

    reskh = 0.5 * resk
    absk = math.fsum(
        [w * (abs(a) + abs(b)) for w, (a, b) in zip(_WGK, pairs)] + [_WGK[7] * abs(fc)]
    )
    resabs = absk * abs(scale)
    resasc = math.fsum(
        [w * (abs(a - reskh) + abs(b - reskh)) for w, (a, b) in zip(_WGK, pairs)]
        + [_WGK[7] * abs(fc - reskh)]
    ) * abs(scale)

    err = abs(resk - resg) * abs(scale)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    floor = 50.0 * _EPS * resabs
    err = max(err, floor)
    fixed = floor if absk == abs(resk) else 0.0
    return _finite(value, "reference value"), _finite(err, "reference value"), floor, fixed


# -- corpus with hand-coded symbolic derivatives ------------------------------


@dataclass(frozen=True)
class CorpusFunction:
    name: str
    text: str  # expression accepted by the parser
    derivs: tuple[Callable[[float], float], ...]  # orders 0..6
    mp_fn: Callable  # same function in mpmath arithmetic, for the FD oracle

    def integrand(self) -> Integrand:
        ds = self.derivs

        def provider(order: int, x: float) -> float:
            return ds[order](x)

        return Integrand(ds[0], provider, max_order=6, name=self.name)


def _exp_corpus() -> CorpusFunction:
    import mpmath as mp

    return CorpusFunction("exp", "exp(x)", tuple(math.exp for _ in range(7)), mp.exp)


def _gauss_corpus() -> CorpusFunction:
    # f = exp(-x^2); f^(k)(x) = p_k(x) exp(-x^2) with the polynomials below
    polys = (
        (1.0,),
        (0.0, -2.0),
        (-2.0, 0.0, 4.0),
        (0.0, 12.0, 0.0, -8.0),
        (12.0, 0.0, -48.0, 0.0, 16.0),
        (0.0, -120.0, 0.0, 160.0, 0.0, -32.0),
        (-120.0, 0.0, 720.0, 0.0, -480.0, 0.0, 64.0),
    )

    def make(cs):
        def d(x: float) -> float:
            acc = 0.0
            for c in reversed(cs):
                acc = acc * x + c
            return acc * math.exp(-x * x)

        return d

    import mpmath as mp

    return CorpusFunction(
        "gauss",
        "exp(-x^2)",
        tuple(make(cs) for cs in polys),
        lambda t: mp.exp(-t * t),
    )


def _sin_corpus() -> CorpusFunction:
    cycle = (
        math.sin,
        math.cos,
        lambda x: -math.sin(x),
        lambda x: -math.cos(x),
    )
    import mpmath as mp

    return CorpusFunction(
        "sin", "sin(x)", tuple(cycle[k % 4] for k in range(7)), mp.sin
    )


def _runge_corpus() -> CorpusFunction:
    # f = 1/(1+x^2); f^(k) = q_k(x) / (1+x^2)^(k+1)
    nums = (
        (1.0,),
        (0.0, -2.0),
        (-2.0, 0.0, 6.0),
        (0.0, 24.0, 0.0, -24.0),
        (24.0, 0.0, -240.0, 0.0, 120.0),
        (0.0, -720.0, 0.0, 2400.0, 0.0, -720.0),
        (-720.0, 0.0, 15120.0, 0.0, -25200.0, 0.0, 5040.0),
    )

    def make(k, cs):
        def d(x: float) -> float:
            acc = 0.0
            for c in reversed(cs):
                acc = acc * x + c
            return acc / (1.0 + x * x) ** (k + 1)

        return d

    return CorpusFunction(
        "runge",
        "1/(1+x^2)",
        tuple(make(k, cs) for k, cs in enumerate(nums)),
        lambda t: 1 / (1 + t * t),
    )


CORPUS = (_exp_corpus(), _gauss_corpus(), _sin_corpus(), _runge_corpus())


# -- finite-difference derivative oracle --------------------------------------

_CENTRAL_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
    5: ((-3, -0.5), (-2, 2.0), (-1, -2.5), (1, 2.5), (2, -2.0), (3, 0.5)),
    6: ((-3, 1.0), (-2, -6.0), (-1, 15.0), (0, -20.0), (1, 15.0), (2, -6.0), (3, 1.0)),
}


def richardson_derivative(mp_fn, x: float, k: int, levels: int = 4) -> float:
    """k-th derivative via central differences plus Richardson extrapolation.

    The stencil sums run in extended precision (``mp_fn`` takes and returns
    mpmath numbers) so the subtractive cancellation that cripples sixth
    differences in binary64 does not pollute the oracle.
    """
    import mpmath as mp

    with mp.workdps(40):
        xm = mp.mpf(x)
        h0 = mp.mpf(1) / 32
        stencil = _CENTRAL_STENCILS[k]

        def central(h):
            return sum(mp.mpf(w) * mp_fn(xm + m * h) for m, w in stencil) / h**k

        table = [[central(h0 / 2**j)] for j in range(levels)]
        for col in range(1, levels):
            factor = mp.mpf(4) ** col
            for row in range(col, levels):
                table[row].append(
                    (factor * table[row][col - 1] - table[row - 1][col - 1])
                    / (factor - 1)
                )
        return float(table[levels - 1][levels - 1])


# -- expression-tree symbolic differentiation ---------------------------------


def _mul(a: Expression, b: Expression) -> Expression:
    return BinOp("*", a, b)


def symbolic_diff(node: Expression) -> Expression:
    """First derivative of an expression tree, by structural rules only."""
    if isinstance(node, (Num, Const)):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0)
    if isinstance(node, Neg):
        return Neg(symbolic_diff(node.arg))
    if isinstance(node, BinOp):
        lt, rt = node.left, node.right
        dl, dr = symbolic_diff(lt), symbolic_diff(rt)
        if node.op == "+":
            return BinOp("+", dl, dr)
        if node.op == "-":
            return BinOp("-", dl, dr)
        if node.op == "*":
            return BinOp("+", _mul(dl, rt), _mul(lt, dr))
        if node.op == "/":
            num = BinOp("-", _mul(dl, rt), _mul(lt, dr))
            return BinOp("/", num, BinOp("^", rt, Num(2.0)))
        # power: constant exponents use the monomial rule, otherwise the
        # full logarithmic derivative
        if isinstance(rt, Num):
            scaled = _mul(Num(rt.value), BinOp("^", lt, Num(rt.value - 1.0)))
            return _mul(scaled, dl)
        inner = BinOp(
            "+", _mul(dr, Call("log", lt)), BinOp("/", _mul(rt, dl), lt)
        )
        return _mul(BinOp("^", lt, rt), inner)
    if isinstance(node, Call):
        arg, da = node.arg, symbolic_diff(node.arg)
        if node.fn == "exp":
            return _mul(Call("exp", arg), da)
        if node.fn == "log":
            return BinOp("/", da, arg)
        if node.fn == "sin":
            return _mul(Call("cos", arg), da)
        if node.fn == "cos":
            return Neg(_mul(Call("sin", arg), da))
        if node.fn == "tan":
            return BinOp("/", da, BinOp("^", Call("cos", arg), Num(2.0)))
        if node.fn == "sqrt":
            return BinOp("/", da, _mul(Num(2.0), Call("sqrt", arg)))
    raise TypeError(f"cannot differentiate {node!r}")


def ulp_distance(x: float, y: float) -> int:
    """Count of doubles from ``x`` to ``y``; the two zeros are 0 apart."""

    def ordinal(v: float) -> int:
        i = struct.unpack("<q", struct.pack("<d", v))[0]
        return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)

    return abs(ordinal(x) - ordinal(y))


# -- compiled code against the tree walks --------------------------------------


def outcome(fn, x, any_nan=False):
    """The result bits (a float or a tuple of floats), or the exception
    class, message and abscissa.

    ``any_nan`` maps every NaN to one marker.  Jets need it: CPython 3.11
    takes the sign of ``a * b`` for two NaNs of opposite sign from either
    operand, depending on whether the interpreter has specialised that
    multiplication yet, so the same code at the same abscissa can return
    NaNs of either sign from one call to the next.
    """
    try:
        value = fn(x)
        values = value if isinstance(value, tuple) else (value,)
        return tuple(
            "nan" if any_nan and math.isnan(v) else struct.pack("<d", v) for v in values
        )
    except Exception as exc:  # any difference must show
        return type(exc), str(exc), repr(getattr(exc, "abscissa", None))


# Leaves that reach the special cases: integer exponents (negative ones and
# zero bases among them), non-integer and infinite exponents, values that
# put log, sqrt and "/" on their domain edges, and exp overflow.
_EDGE_NUMBERS = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 0.5, -1.5, 1e999, -1e999,
     2.0**31, 2.0**31 + 1.0, 710.0, 1e-300]
)
_EDGE_LEAVES = st.one_of(
    st.builds(Num, _EDGE_NUMBERS),
    st.builds(Num, st.floats(allow_nan=False, allow_infinity=False)),
    st.just(Var()),
    st.builds(Const, st.sampled_from(["pi", "e"])),
)
EDGE_TREES = st.recursive(
    _EDGE_LEAVES,
    lambda kids: st.one_of(
        st.builds(Neg, kids),
        st.builds(Call, st.sampled_from(["exp", "log", "sin", "cos", "tan", "sqrt"]), kids),
        st.builds(BinOp, st.sampled_from(list("+-*/^")), kids, kids),
        # one subtree twice, which the compiled code computes once
        st.builds(lambda op, kid: BinOp(op, kid, kid), st.sampled_from(list("+-*/^")), kids),
        st.builds(BinOp, st.just("^"), kids, st.builds(Num, _EDGE_NUMBERS)),
        st.builds(BinOp, st.just("^"), kids, st.builds(Neg, st.builds(Num, _EDGE_NUMBERS))),
    ),
    max_leaves=10,
)
EDGE_ABSCISSAE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 710.0, -710.0, 1e-300, 1e300]),
    st.floats(allow_nan=False),
)
EDGE_LIMITS = st.one_of(st.floats(-4.0, 4.0), st.floats(allow_nan=False, allow_infinity=False))


# Exponents without x that the tracer must fold to decide their power as the
# floats do: a power of constants, calls of constants, infinite operands, and
# a NaN that b ** 0 turns into 1.0; and a NaN's sign, which folding must keep.
_FOLDS = ("(0^1)^(0^1)", "x^exp(0)", "x^sqrt(4)", "x^log(1)", "x^exp(-1e999)",
          "x^(1/1e999+2)", "x^((1e999-1e999)^0)", "-(1e999+-1e999)")


def fold_examples(test):
    """``test(tree, xs)`` with each of those trees as an explicit example."""
    from msquad.expressions import parse

    for text in reversed(_FOLDS):
        test = example(parse(text), [0.0, -0.0, -1.5, 2.0])(test)
    return test


# -- the expression printer ------------------------------------------------------


def _prec(node: Expression) -> int:
    if isinstance(node, BinOp):
        return _PRECEDENCE[node.op]
    if isinstance(node, Neg):
        return _NEG_PRECEDENCE
    return 9


def to_string(node: Expression) -> str:
    """Render a tree back to text; reparsing it within the nesting bound
    yields an equal tree."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({to_string(node.arg)})"
    if isinstance(node, Neg):
        inner = to_string(node.arg)
        if _prec(node.arg) < _NEG_PRECEDENCE:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, BinOp):
        p = _PRECEDENCE[node.op]
        left, right = to_string(node.left), to_string(node.right)
        if node.op == "^":
            # right-associative: parenthesize any non-atomic base; the
            # exponent is a unary, so a negation there stays bare (x^-y)
            if _prec(node.left) <= p:
                left = f"({left})"
            if _prec(node.right) < _NEG_PRECEDENCE:
                right = f"({right})"
        else:
            if _prec(node.left) < p:
                left = f"({left})"
            if _prec(node.right) <= p:
                right = f"({right})"
        return f"{left}{node.op}{right}"
    raise TypeError(f"not an expression node: {node!r}")


def edge_text(tree: Expression) -> str:
    """An edge tree as expression text.  Num(inf) prints as "inf", which
    reparses as a name; 1e999 is its literal."""
    return to_string(tree).replace("inf", "1e999")


# -- corpora for the compiled code, and its golden digests ----------------------

# One operator or function per entry, on the edges the grids hit, plus the
# composite-sized integrands.
VALUE_CORPUS = (
    "exp(-x^2)*sin(3*x)+1/(1+x^2)",
    "cos(2.5*x)*exp(-1.2*x)+sqrt(1+0.7*x^2)",
    "log(1+1.3*x^2)*cos(4.1*x)+x/(1+0.9*x^2)",
    "tan(x/4) - log(x+5) + -(x+1)^2 + x*x - x/x",
    "1/(x-1)", "x/(x-1)", "2/x", "sin(x)/x", "x/0", "(x+1)/0", "x/2",
    "log(x)", "log(x-1)", "log(0)", "sqrt(x)", "sqrt(x-1)", "sqrt(-x)",
    "x^2", "(x-1)^2", "x^-2", "(x-1)^-1", "0^-1", "x^0", "x^0.5",
    "(x-1)^1.5", "x^1e999", "x^2147483648", "x^2147483649", "2^x", "x^x",
    "exp(x)", "exp(x^2)", "exp(1000)", "1-x^2", "x^2-1", "1-x", "x-1",
    "x+1", "1+x", "x*3", "3*x", "-x", "-(x-1)", "tan(x)", "cos(x)", "sin(x)",
)
VALUE_GRID = tuple([-2.0 + 4.0 * j / 2000 for j in range(2001)]
                   + [0.0, -0.0, 1.0, -1.0, 710.0, -710.0, 1e300, -1e300,
                      math.inf, -math.inf])

JET_CORPUS = (
    "exp(-x^2)*sin(3*x)+1/(1+x^2)",
    "cos(2.5*x)*exp(-1.2*x)+sqrt(1+0.7*x^2)",
    "log(1+1.3*x^2)*cos(4.1*x)+x/(1+0.9*x^2)",
    "tan(x/4) - log(x+5) + -(x+1)^2 + x*x - x/x",
    "exp(x)", "exp(x^2)", "exp(1000)", "exp(-x)", "log(x)", "log(x-1)",
    "log(0)", "sqrt(x)", "sqrt(x-1)", "sqrt(-x)", "sin(x)", "cos(x)",
    "tan(x)", "1/tan(x)", "sin(x)/cos(x)", "1/(x-1)", "x/(x-1)", "2/x",
    "sin(x)/x", "x/0", "x-1", "1-x", "-x", "-(x-1)", "x*3", "pi*e*x",
    # literal integer exponents up to the 2^31 limit, negated and zero ones
    # among them
    "x^2", "(x-1)^2", "x^7", "x^0", "x^-0", "x^-1", "x^-2", "(x-1)^-1",
    "0^-1", "(1e-200*x)^-2", "(1e200*x)^3", "x^2147483647", "x^-2147483648",
    "x^2147483648", "x^2147483649",
    # every other kind of exponent
    "x^0.5", "(x-1)^1.5", "x^1e999", "x^-1e999", "2^x", "x^x", "x^(x-x)",
    "x^(x-x-2)", "(1e-200*x)^(0-2)", "x^(2*1)", "x^3^2", "x^--2", "x^pi",
)
JET_GRID = tuple([-2.0 + 4.0 * j / 200 for j in range(201)]
                 + [0.0, -0.0, 1e-300, -1e-300, 710.0, -710.0, 1e160, 1e300, -1e300,
                    math.inf, -math.inf, math.nan, math.pi / 2])

# One instance of each expression family of bench/workloads.py.
BENCH_FAMILIES = (
    "exp(-1.25*x^2)*sin(3.5*x)+1/(1+0.75*x^2)",
    "cos(3.5*x)*exp(-1.25*x)+sqrt(1+0.75*x^2)",
    "log(1+0.75*x^2)*cos(3.5*x)+x/(1+1.25*x^2)",
    "exp(1.2*x)",
    "sin(1.5*x)+cos(2.5*x)",
    "1/(1+2.5*x^2)",
    "log(1+x)*exp(-0.8*x)",
    "sin(40.5*x)*exp(-x)",
    "exp(-x^2)*cos(25.1*x)",
    "1/(1+25.3*x^2)",
    "1/(1e-2+x^2)",
)


def square_as_product(text: str) -> str:
    """``text`` with each ``u^2`` rewritten to ``(u)*(u)``: every power whose
    exponent does not contain ``x`` and evaluates to 2 (``x^--2`` and
    ``x^(2*1)`` among them), however deeply nested."""
    from msquad.expressions import evaluate, parse

    def has_var(node) -> bool:
        kids = (getattr(node, kid) for kid in ("arg", "left", "right") if hasattr(node, kid))
        return isinstance(node, Var) or any(map(has_var, kids))

    def rewrite(node):
        if isinstance(node, BinOp):
            left, right = rewrite(node.left), rewrite(node.right)
            if node.op == "^" and not has_var(right) and evaluate(right, 0.0) == 2.0:
                return BinOp("*", left, left)
            return BinOp(node.op, left, right)
        if isinstance(node, Neg):
            return Neg(rewrite(node.arg))
        if isinstance(node, Call):
            return Call(node.fn, rewrite(node.arg))
        return node

    tree = parse(text)
    new = rewrite(tree)
    return text if new == tree else to_string(new)


def compiled_digests(rewrite: Callable[[str], str] | None = None) -> dict[str, dict[str, str]]:
    """Per expression, sha256 digests of what its compiled value function
    returns or raises over ``VALUE_GRID`` and what its compiled jet does
    over ``JET_GRID`` (NaNs as one marker, see :func:`outcome`); each text
    is first passed through ``rewrite`` when one is given.

    ``tests/data/compiled_golden.json`` holds these digests as computed by
    an earlier release's compilers, which were written independently of
    the tree walks, on the texts rewritten by :func:`square_as_product`;
    the command that made it is recorded in the file.
    """
    import hashlib

    from msquad.expressions import compile_expression, parse
    from msquad.jets import compile_jet

    def digest(fn, grid, any_nan):
        data = repr([outcome(fn, x, any_nan) for x in grid]).encode()
        return hashlib.sha256(data).hexdigest()

    out = {}
    for text in dict.fromkeys(VALUE_CORPUS + JET_CORPUS + BENCH_FAMILIES):
        tree = parse(rewrite(text) if rewrite is not None else text)
        out[text] = {
            "value": digest(compile_expression(tree), VALUE_GRID, False),
            "jet": digest(compile_jet(tree), JET_GRID, True),
        }
    return out


# -- the expression tree in mpmath arithmetic -----------------------------------

_MP_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": operator.pow}


def mp_value(node: Expression, x):
    """The tree evaluated in mpmath at the mpf ``x``, for ``mpmath.taylor``."""
    import mpmath as mp

    if isinstance(node, Num):
        return mp.mpf(node.value)
    if isinstance(node, Var):
        return x
    if isinstance(node, Const):
        return mp.pi if node.name == "pi" else mp.e
    if isinstance(node, Neg):
        return -mp_value(node.arg, x)
    if isinstance(node, BinOp):
        return _MP_OPS[node.op](mp_value(node.left, x), mp_value(node.right, x))
    return getattr(mp, node.fn)(mp_value(node.arg, x))
