import math
import random
from fractions import Fraction as F

import pytest

from helpers import (
    exact_branch_integral,
    exact_modified_simpson_error,
    kernel,
    poly_eval,
    poly_integral,
    poly_nth_derivative,
)
from msquad.integrand import Integrand, Interval, UniformGrid
from msquad.kernels import (
    _LEFT_F,
    KERNEL_ORDERS,
    kernel_eval,
    scaled_constants,
)
from msquad.reference import reference_integral
from msquad.rules import composite_modified_simpson

SQRT19 = math.sqrt(19.0)


def scaled_kernel(k: int, t: float, iv: Interval) -> float:
    """T_k rescaled to ``iv``: ``(b-a)^k T_k((t-a)/(b-a))``, whose integral
    against f^(k) is the corrected-rule error on [a, b]."""
    return iv.width**k * kernel_eval(k, (t - iv.a) / iv.width)


# -- point values --------------------------------------------------------------


def test_eval_examples():
    assert kernel_eval(2, 0.0) == 1.0 / 60.0
    assert abs(kernel_eval(3, 0.2)) <= 1e-16  # explicit root of the left branch
    q6_half = poly_eval(kernel(6).right_poly, F(1, 2))
    assert q6_half == F(1, 230400)
    assert kernel_eval(6, 0.5) == pytest.approx(float(q6_half), rel=1e-12)


def test_eval_vanishes_exactly_at_one():
    # the right branch has a root of order k - 2 >= 1 at x = 1
    for k in (3, 4, 5, 6):
        assert poly_eval(kernel(k).right_poly, F(1)) == 0
        assert kernel_eval(k, 1.0) == 0.0


# The factored forms the branches were once typed in, kept as data: the
# unsigned branch (-1)^k T_k is 1/k! times (x - r) over these roots, repeated
# roots listed once per multiplicity, times a monic quadratic where given.
# The 4/5 root of Q_3 is forced by the mirror symmetry Q_3(x) = -P_3(1 - x)
# and by the zero-mean identity.
FACTORED_BRANCHES = {
    # k: ((left roots, left quadratic), (right roots, right quadratic))
    2: (((), (F(1, 30), F(-7, 15), F(1))), ((), (F(17, 30), F(-23, 15), F(1)))),
    3: (((F(0), F(1, 5), F(1, 2)), None), ((F(1), F(1, 2), F(4, 5)), None)),
    4: (((F(0), F(0), F(1, 3), F(3, 5)), None), ((F(1), F(1), F(2, 3), F(2, 5)), None)),
    5: (((F(0), F(0), F(0), F(1, 2), F(2, 3)), None),
        ((F(1), F(1), F(1), F(1, 2), F(1, 3)), None)),
    6: (((F(0),) * 4, (F(1, 2), F(-7, 5), F(1))), ((F(1),) * 4, (F(1, 10), F(-3, 5), F(1)))),
}


def _divide_root(poly: tuple[F, ...], r: F) -> tuple[tuple[F, ...], F]:
    """Quotient and remainder of ``poly`` divided by ``x - r`` (synthetic division)."""
    acc, quotient = F(0), []
    for c in reversed(poly):
        acc = acc * r + c
        quotient.append(acc)
    return tuple(reversed(quotient[:-1])), quotient[-1]


@pytest.mark.parametrize("k", KERNEL_ORDERS)
def test_derived_kernels_have_the_documented_factored_forms(k):
    ker = kernel(k)
    for side, poly, (roots, quadratic) in zip(("left", "right"),
                                             (ker.left_poly, ker.right_poly),
                                             FACTORED_BRANCHES[k]):
        assert len(poly) == k + 1, (side, poly)
        for r in dict.fromkeys(roots):
            for _ in range(roots.count(r)):  # a root of the listed multiplicity ...
                poly, rem = _divide_root(poly, r)
                assert rem == 0, (side, r)
            assert _divide_root(poly, r)[1] != 0, (side, r)  # ... and no higher
        want = tuple(c / math.factorial(k) for c in quadratic or (F(1),))
        assert poly == want, (side, poly)


def test_float_coefficients_are_the_signed_exact_expansion():
    # kernel_eval reads float literals, so an import needs no Fraction; each
    # must be the exact left-branch coefficient rounded and signed, -0.0 kept
    for k in KERNEL_ORDERS:
        want = tuple(float(c) * (-1) ** k for c in kernel(k).left_poly)
        assert list(map(repr, _LEFT_F[k])) == list(map(repr, want)), k


def test_order_six_kernel_never_changes_sign():
    m = 20_001
    assert min(kernel_eval(6, i / (m - 1)) for i in range(m)) >= 0.0


def test_eval_against_exact_branches():
    # dense near 1/2 and 1, where expanded branches cancel; the error is
    # measured against the largest exact value on the samples
    m = 601
    xs = ([i / (m - 1) for i in range(m)] + [0.5 + j * 2.0**-40 for j in range(-50, 51)]
          + [1.0 - j * 2.0**-30 for j in range(50)])
    for k in KERNEL_ORDERS:
        ker = kernel(k)
        exact = [ker.sign * poly_eval(ker.left_poly if x < 0.5 else ker.right_poly, F(x))
                 for x in xs]
        sup = max(map(abs, exact))
        worst = max(abs(F(kernel_eval(k, x)) - e) for x, e in zip(xs, exact))
        assert worst <= 1e-14 * sup, k


def test_eval_domain_and_order_checks():
    with pytest.raises(ValueError):
        kernel_eval(2, -0.1)
    with pytest.raises(ValueError):
        kernel_eval(2, 1.0000001)
    with pytest.raises(ValueError):
        kernel_eval(7, 0.5)
    with pytest.raises(ValueError):
        scaled_constants(7)


# -- norm constants ------------------------------------------------------------


def test_abs_integral_closed_forms():
    assert scaled_constants(4).c == 1.0 / 14580.0
    assert scaled_constants(6).c == 1.0 / 604800.0
    assert scaled_constants(2).c == 19.0 * SQRT19 / 10125.0
    assert scaled_constants(2).c == pytest.approx(8.1794e-3, rel=1e-4)


def test_max_abs_closed_forms():
    assert scaled_constants(2).b == 1.0 / 40.0
    assert scaled_constants(4).b == 1.0 / 5760.0
    b3 = 7.0 / 20250.0 + 19.0 * SQRT19 / 81000.0
    assert scaled_constants(3).b == b3
    assert scaled_constants(3).b == pytest.approx(1.3681e-3, rel=1e-4)
    # T_6 >= 0 peaks at the branch point: T_6(1/2) = 1/230400 exactly
    assert scaled_constants(6).b == float(F(1, 230400))


@pytest.mark.parametrize("k", KERNEL_ORDERS)
def test_abs_integral_against_adaptive_quadrature(k):
    # integrate |T_k|/C_k so the absolute tolerance is meaningful at every k
    ck = scaled_constants(k).c
    scaled = Integrand(lambda x: abs(kernel_eval(k, x)) / ck)
    got = reference_integral(scaled, Interval(0.0, 1.0), tol=1e-12)
    assert abs(got.value - 1.0) <= 1e-9


@pytest.mark.parametrize("k", KERNEL_ORDERS)
def test_max_abs_against_sampling_oracle(k):
    m = 4001
    xs = [i / (m - 1) for i in range(m)]
    vals = [abs(kernel_eval(k, x)) for x in xs]
    i_best = max(range(m), key=vals.__getitem__)
    lo = xs[max(i_best - 1, 0)]
    hi = xs[min(i_best + 1, m - 1)]
    # golden-section polish of the sampled maximum
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    while b - a > 1e-14:
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        if abs(kernel_eval(k, c)) > abs(kernel_eval(k, d)):
            b = d
        else:
            a = c
    polished = max(
        abs(kernel_eval(k, a)), abs(kernel_eval(k, b)), vals[i_best]
    )
    assert polished == pytest.approx(scaled_constants(k).b, rel=1e-8)


@pytest.mark.parametrize("k", KERNEL_ORDERS)
def test_scaled_constants_identities(k):
    kc = scaled_constants(k)
    assert kc.k == k
    # exact: power-of-two scaling
    assert kc.d == 2 ** (k + 1) * kc.c
    assert kc.e == 2 ** (k + 1) * kc.b


def test_scaled_constants_examples():
    assert scaled_constants(4).d == 8.0 / 3645.0
    assert scaled_constants(6).d == 1.0 / 4725.0
    assert scaled_constants(2).e == 1.0 / 5.0
    assert scaled_constants(6).e == 1.0 / 1800.0


# -- moments and orthogonality ---------------------------------------------------


def test_moment_zero_mean():
    for k in (2, 3, 4, 5):
        assert exact_branch_integral(k, 0) == 0


def test_moment_polynomial_orthogonality():
    for k in (2, 3, 4):
        for j in range(0, 5 - k + 1):
            assert exact_branch_integral(k, j) == 0


def test_moment_order_six_sign_fixed_by_oracle():
    oracle = exact_branch_integral(6, 0)
    assert oracle == F(1, 604800)  # positive: the kernel does not change sign
    assert float(oracle) == scaled_constants(6).c  # so C_6 is the plain integral


# -- Peano remainder identities --------------------------------------------------


def test_remainder_identity_exact_for_all_orders():
    # For a degree-6 integrand the kernel representation of the rule error
    # must hold at every order k = 2..6; checked in exact rational arithmetic.
    rng = random.Random(60481)
    for _ in range(5):
        coeffs = tuple(F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(7))
        true_error = exact_modified_simpson_error(coeffs, F(0), F(1))
        for k in KERNEL_ORDERS:
            fk = poly_nth_derivative(coeffs, k)
            ker = kernel(k)
            acc = F(0)
            for poly, lo, hi in (
                (ker.left_poly, F(0), F(1, 2)),
                (ker.right_poly, F(1, 2), F(1)),
            ):
                prod = [F(0)] * (len(poly) + len(fk) - 1)
                for i, a in enumerate(poly):
                    for j, b in enumerate(fk):
                        prod[i + j] += a * b
                acc += poly_integral(prod, lo, hi)
            assert ker.sign * acc == true_error, (k, coeffs)


def test_remainder_identity_numeric_for_degree_six():
    rng = random.Random(7777)
    for _ in range(10):
        coeffs = [rng.uniform(-3.0, 3.0) for _ in range(7)]
        exact = exact_modified_simpson_error([F(c) for c in coeffs], F(0), F(1))
        # f^(6) is the constant 720 c_6, so the representation reduces to a moment
        via_kernel = 720.0 * coeffs[6] * float(exact_branch_integral(6, 0))
        assert abs(via_kernel - float(exact)) <= 1e-13


def test_scaled_kernel_identity_polynomial():
    # Degree-7 integrand on a shifted panel: the scaled-kernel integral must
    # reproduce the panel-rule error.  Each half is a polynomial, so a single
    # Kronrod application per half is exact and the comparison is sharp.
    coeffs = (F(1, 3), F(-2), F(1, 2), F(3), F(-1, 5), F(1), F(-1, 2), F(1, 4))
    a, b = F(3, 10), F(11, 10)
    fa, fb = float(a), float(b)
    iv = Interval(fa, fb)
    true_error = float(
        poly_integral(coeffs, a, b) - exact_modified_simpson_panel_frac(coeffs, a, b)
    )
    for k in KERNEL_ORDERS:
        fk = poly_nth_derivative(coeffs, k)

        def weighted(t: float) -> float:
            acc = 0.0
            for c in reversed(fk):
                acc = acc * t + float(c)
            return scaled_kernel(k, t, iv) * acc

        g = Integrand(weighted)
        mid = float(a + (b - a) / 2)
        lhs = (
            reference_integral(g, Interval(fa, mid), tol=1e-13).value
            + reference_integral(g, Interval(mid, fb), tol=1e-13).value
        )
        assert lhs == pytest.approx(true_error, rel=1e-10), k


def exact_modified_simpson_panel_frac(coeffs, a, b):
    from helpers import exact_modified_simpson_panel

    return exact_modified_simpson_panel(coeffs, a, b)


def test_scaled_kernel_identity_smooth():
    # Same identity for a non-polynomial integrand, at the accuracy the
    # reference oracle supports.
    f = Integrand.from_callables(math.exp, *[math.exp] * 6)
    iv = Interval(-0.3, 0.9)
    ref = reference_integral(f, iv, tol=1e-13).value
    true_error = ref - composite_modified_simpson(f, UniformGrid(iv, 1)).value
    for k in KERNEL_ORDERS:
        g = Integrand(lambda t: scaled_kernel(k, t, iv) * math.exp(t))
        mid = iv.a + 0.5 * iv.width
        lhs = (
            reference_integral(g, Interval(iv.a, mid), tol=1e-13).value
            + reference_integral(g, Interval(mid, iv.b), tol=1e-13).value
        )
        assert lhs == pytest.approx(true_error, rel=1e-6), k


# -- symmetry --------------------------------------------------------------------


def test_sign_symmetry_sampled():
    m = 1001  # odd count puts a sample exactly on the branch point
    for k in KERNEL_ORDERS:
        sign = (-1) ** k
        for i in range(m):
            x = i / (m - 1)
            lhs = kernel_eval(k, x)
            rhs = sign * kernel_eval(k, 1.0 - x)
            assert abs(lhs - rhs) <= 1e-14, (k, x)


def test_mirror_relation_exact():
    for k in (3, 4, 5, 6):
        ker = kernel(k)
        for xx in (F(0), F(1, 9), F(1, 2), F(17, 23), F(1)):
            lhs = poly_eval(ker.right_poly, xx)
            rhs = (-1) ** k * poly_eval(ker.left_poly, 1 - xx)
            assert lhs == rhs
