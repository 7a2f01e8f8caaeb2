"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import random
from fractions import Fraction as F

from helpers import (
    CORPUS,
    exact_branch_integral,
    exact_modified_simpson_error,
    poly_integral,
    poly_integrand,
    richardson_derivative,
)
from msquad.bounds import (
    composite_bound_k6,
    composite_bounds,
    estimate_derivative_range,
    midpoint_bounds,
    secant_slope,
    simpson_classic_bound,
)
from msquad.integrand import Integrand, Interval, UniformGrid
from msquad.jets import derivatives
from msquad.expressions import parse
from msquad.kernels import KERNEL_ORDERS, kernel_eval, scaled_constants
from msquad.reference import convergence_study, reference_integral
from msquad.rules import (
    Rule,
    composite_modified_simpson,
    composite_simpson,
    corrected_midpoint_panel,
    leading_error_estimate,
    midpoint_panel,
)

UNIT = Interval(0.0, 1.0)
SYM = Interval(-1.0, 1.0)
EXP = Integrand.from_callables(math.exp, *[math.exp] * 6, name="exp")


def check(criterion: int, description: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion:2d} [{status}] {description}")
    assert not failures, f"criterion {criterion}: {failures}"


def test_criterion_1_exp_panel_example():
    failures = []
    panel = UniformGrid(SYM, 1)  # one pair of subintervals is the single panel
    got = composite_modified_simpson(EXP, panel).value
    closed = (6.0 * math.e + 16.0 + 8.0 / math.e) / 15.0
    if abs(got - closed) / abs(closed) > 1e-12:
        failures.append(f"panel value {got!r} != closed form {closed!r}")
    simpson = composite_simpson(EXP, panel).value
    if f"{got:.5g}" != "2.3502":
        failures.append(f"modified prints {got:.5g}, want 2.3502")
    if f"{simpson:.5g}" != "2.3621":
        failures.append(f"Simpson prints {simpson:.5g}, want 2.3621")
    truth = math.e - 1.0 / math.e
    ratio = abs(truth - simpson) / abs(truth - got)
    if ratio < 50.0:
        failures.append(f"error ratio {ratio:.2f} below 50")
    check(1, "corrected panel reproduces 2.3502 vs 2.3621, error ratio >= 50", failures)


def test_criterion_2_erf_composite_example():
    failures = []
    f = CORPUS[1].integrand()
    coarse = composite_modified_simpson(f, UniformGrid(UNIT, 1)).value
    fine = composite_modified_simpson(f, UniformGrid(UNIT, 2)).value
    if abs(coarse - 0.746795) > 5e-7:
        failures.append(f"h=1/2 value {coarse!r} not 0.746795 +- 5e-7")
    if abs(fine - 0.746824) > 5e-7:
        failures.append(f"h=1/4 value {fine!r} not 0.746824 +- 5e-7")
    reference = reference_integral(f, UNIT, tol=1e-13).value
    if abs(fine - reference) > 1e-6:
        failures.append(f"h=1/4 value off reference by {abs(fine - reference):.2e}")
    check(2, "composite rule hits 0.746795 (h=1/2) and 0.746824 (h=1/4)", failures)


def test_criterion_3_convergence_orders():
    failures = []
    f = CORPUS[1].integrand()
    grids = [2, 4, 8, 16, 32, 64]
    modified = convergence_study(Rule.MODIFIED_SIMPSON, f, UNIT, grids)
    simpson = convergence_study(Rule.SIMPSON, f, UNIT, grids)
    if modified.fitted_order is None or not 5.75 <= modified.fitted_order <= 6.25:
        failures.append(f"modified order {modified.fitted_order} outside 6 +- 0.25")
    if simpson.fitted_order is None or not 3.75 <= simpson.fitted_order <= 4.25:
        failures.append(f"Simpson order {simpson.fitted_order} outside 4 +- 0.25")
    by_pairs = {row.n_pairs: row.abs_error for row in modified.rows}
    if by_pairs[32] > 1e-13:  # 64 subintervals
        failures.append(f"error {by_pairs[32]:.2e} above 1e-13 at 64 subintervals")
    check(3, "fitted orders 6/4 on exp(-x^2); 1e-13 floor by 64 subintervals", failures)


def test_criterion_4_exactness_suite():
    failures = []
    rng = random.Random(13571113)
    for trial in range(100):
        coeffs = [rng.uniform(-4.0, 4.0) for _ in range(rng.randint(1, 6))]
        a = rng.uniform(-3.0, 2.0)
        b = a + rng.uniform(0.5, 3.0)
        exact = poly_integral([F(c) for c in coeffs], F(a), F(b))
        if abs(exact) < 0.1:
            coeffs[0] += 7.0
            exact = poly_integral([F(c) for c in coeffs], F(a), F(b))
        f = poly_integrand(coeffs)
        iv = Interval(a, b)
        panel = composite_modified_simpson(f, UniformGrid(iv, 1)).value
        composite = composite_modified_simpson(f, UniformGrid(iv, rng.randint(1, 8))).value
        for label, got in (("panel", panel), ("composite", composite)):
            rel = abs(got - float(exact)) / abs(float(exact))
            if rel > 1e-13:
                failures.append(f"trial {trial} {label}: rel error {rel:.2e}")
    x6 = [F(0)] * 6 + [F(1)]
    if exact_modified_simpson_error(x6, F(-1), F(1)) != F(16, 105):
        failures.append("degree-6 monomial error is not exactly 16/105")
    check(4, "100 random degree<=5 polynomials exact; x^6 breaks by 16/105", failures)


def test_criterion_5_kernel_constants():
    failures = []
    for k in KERNEL_ORDERS:
        kc = scaled_constants(k)
        scaled = Integrand(lambda x, _k=k, _c=kc.c: abs(kernel_eval(_k, x)) / _c)
        got = reference_integral(scaled, UNIT, tol=1e-12).value
        if abs(got - 1.0) > 1e-9:
            failures.append(f"C_{k}: quadrature off by {abs(got - 1.0):.2e}")
        if kc.d != 2 ** (k + 1) * kc.c:
            failures.append(f"D_{k} != 2^{k + 1} C_{k}")
        if kc.e != 2 ** (k + 1) * kc.b:
            failures.append(f"E_{k} != 2^{k + 1} B_{k}")
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    for k in KERNEL_ORDERS:
        m = 4001
        xs = [i / (m - 1) for i in range(m)]
        vals = [abs(kernel_eval(k, x)) for x in xs]
        i_best = max(range(m), key=vals.__getitem__)
        a, b = xs[max(i_best - 1, 0)], xs[min(i_best + 1, m - 1)]
        while b - a > 1e-14:
            c, d = b - invphi * (b - a), a + invphi * (b - a)
            if abs(kernel_eval(k, c)) > abs(kernel_eval(k, d)):
                b = d
            else:
                a = c
        polished = max(abs(kernel_eval(k, a)), abs(kernel_eval(k, b)), vals[i_best])
        b_k = scaled_constants(k).b
        if abs(polished - b_k) / b_k > 1e-8:
            failures.append(f"B_{k}: sampled max {polished!r} != closed form")
    check(5, "kernel L1/sup norms match closed forms; 2^(k+1) scalings exact", failures)


def test_criterion_6_moments_and_remainder():
    failures = []
    for k in (2, 3, 4, 5):
        if exact_branch_integral(k, 0) != 0:
            failures.append(f"zero-mean violated for k={k}")
    for k in (2, 3, 4):
        for j in range(0, 5 - k + 1):
            if exact_branch_integral(k, j) != 0:
                failures.append(f"orthogonality violated for k={k}, j={j}")
    rng = random.Random(868)
    for trial in range(20):
        coeffs = [rng.uniform(-3.0, 3.0) for _ in range(7)]
        exact = exact_modified_simpson_error([F(c) for c in coeffs], F(0), F(1))
        # degree-6 integrand: f^(6) is constant, the representation is a moment
        via_kernel = 720.0 * coeffs[6] * float(exact_branch_integral(6, 0))
        if abs(via_kernel - float(exact)) > 1e-13:
            failures.append(f"trial {trial}: remainder identity off by "
                            f"{abs(via_kernel - float(exact)):.2e}")
    check(6, "kernel moments vanish; remainder identity on degree-6 polys", failures)


def test_criterion_7_bound_validity():
    failures = []
    for fn in CORPUS:
        f = fn.integrand()
        reference = reference_integral(f, UNIT, tol=1e-13).value
        ranges = {
            k: estimate_derivative_range(f, k, UNIT, n_samples=1025, safety=1.0)
            for k in (2, 3, 4, 5, 6)
        }
        slopes = {k: secant_slope(f, k - 1, UNIT) for k in (2, 3, 4, 5)}
        sup6 = ranges[6].sup_abs
        # n = 1 is the single panel on [0, 1] (h = 1/2), so its bounds are the unit ones
        for n in (1, 2, 4, 8):
            grid = UniformGrid(UNIT, n)
            err = abs(reference - composite_modified_simpson(f, grid).value)
            for k in (2, 3, 4, 5):
                rep = composite_bounds(k, ranges[k], slopes[k], grid.h, 1.0)
                for label, bound in (
                    ("range", rep.range_bound),
                    ("lower-gap", rep.lower_gap_bound),
                    ("upper-gap", rep.upper_gap_bound),
                    ("best", rep.best),
                ):
                    if err > bound:
                        failures.append(
                            f"{fn.name} n={n} k={k}: error {err:.2e} > {label} {bound:.2e}"
                        )
            if err > composite_bound_k6(sup6, grid.h, 1.0):
                failures.append(f"{fn.name} n={n}: error above k=6 composite bound")
        # the quarter-form coefficient beats the classic Simpson constant
        h = 0.25
        corrected = composite_bounds(4, ranges[4], slopes[4], h, 1.0).range_bound
        classic = simpson_classic_bound(ranges[4].sup_abs, h, 1.0)
        if not corrected < classic:
            failures.append(f"{fn.name}: corrected coefficient not below Simpson's")
    check(7, "true errors respect every bound family on n in {1,2,4,8}", failures)


def test_criterion_8_leading_error_constant():
    failures = []
    # exact rational identity on x^6 over [-1, 1]: h = 1, delta f^(5) = 1440
    x6 = [F(0)] * 6 + [F(1)]
    true_error = exact_modified_simpson_error(x6, F(-1), F(1))
    estimate = F(1, 9450) * 1440
    if true_error != estimate or true_error != F(16, 105):
        failures.append(f"rational oracle mismatch: {true_error} vs {estimate}")
    wrong_constant = F(1, 4725) * 1440
    if wrong_constant == true_error:
        failures.append("1/4725 would also match, oracle is not decisive")
    sextic = poly_integrand([0.0] * 6 + [1.0])
    est_float = leading_error_estimate(sextic, UniformGrid(SYM, 1))
    if abs(est_float - float(F(16, 105))) > 1e-15:
        failures.append(f"float estimate {est_float!r} differs from 16/105")
    # asymptotic ratio on the finest grids that stay above the rounding floor
    f = CORPUS[1].integrand()
    reference = reference_integral(f, UNIT, tol=1e-13).value
    rows = []
    for n in (2, 4, 8, 12, 14, 16):
        grid = UniformGrid(UNIT, n)
        err = abs(reference - composite_modified_simpson(f, grid).value)
        if err > 1e-13:
            rows.append((n, err, abs(leading_error_estimate(f, grid))))
    for n, err, est in rows[-3:]:
        if abs(err / est - 1.0) > 0.10:
            failures.append(f"n={n}: true/estimate ratio {err / est:.3f} off 1 +- 0.10")
    check(8, "h^6/9450 constant: exact on x^6, ratio -> 1 on fine grids", failures)


def test_criterion_9_corrected_midpoint():
    failures = []
    rng = random.Random(2718281)
    for trial in range(40):
        coeffs = [rng.uniform(-4.0, 4.0) for _ in range(4)]
        a = rng.uniform(-2.0, 1.0)
        b = a + rng.uniform(0.5, 2.5)
        exact = poly_integral([F(c) for c in coeffs], F(a), F(b))
        if abs(exact) < 0.1:
            coeffs[0] += 7.0
            exact = poly_integral([F(c) for c in coeffs], F(a), F(b))
        got = corrected_midpoint_panel(poly_integrand(coeffs), Interval(a, b))
        if abs(got - float(exact)) / abs(float(exact)) > 1e-14:
            failures.append(f"trial {trial}: cubic not integrated exactly")
    for length in (0.5, 1.0, 2.0, 7.0):
        classic, corrected, _ = midpoint_bounds(1.0, 0.0, length)
        if not corrected < classic:
            failures.append(f"corrected bound not below classic at length {length}")
    for fn in CORPUS:
        f = fn.integrand()
        reference = reference_integral(f, UNIT, tol=1e-13).value
        m2 = estimate_derivative_range(f, 2, UNIT, n_samples=1025, safety=1.0).sup_abs
        m4 = estimate_derivative_range(f, 4, UNIT, n_samples=1025, safety=1.0).sup_abs
        classic, corrected, corrected_h4 = midpoint_bounds(m2, m4, 1.0)
        err_mid = abs(reference - midpoint_panel(f, UNIT))
        err_cmid = abs(reference - corrected_midpoint_panel(f, UNIT))
        if err_mid > classic:
            failures.append(f"{fn.name}: midpoint error above classic bound")
        if err_cmid > corrected:
            failures.append(f"{fn.name}: corrected error above sharp bound")
        if err_cmid > corrected_h4:
            failures.append(f"{fn.name}: corrected error above 7M4/5760 bound")
    check(9, "corrected midpoint exact to degree 3; all midpoint bounds hold", failures)


def test_criterion_10_ad_correctness():
    failures = []
    for fn in CORPUS:
        tree = parse(fn.text)
        for x in (0.17, 0.5, 0.93):
            jet = derivatives(tree, x)
            for k in range(1, 7):
                got = jet.derivative(k)
                sym = fn.derivs[k](x)
                if abs(got - sym) > 1e-12 * max(1.0, abs(sym)):
                    failures.append(f"{fn.name} k={k} x={x}: symbolic mismatch")
                fd = richardson_derivative(fn.mp_fn, x, k)
                if abs(got - fd) > 1e-6 * max(1.0, abs(fd)):
                    failures.append(f"{fn.name} k={k} x={x}: finite-difference mismatch")
    check(10, "jet derivatives match symbolic (1e-12) and Richardson FD (1e-6)", failures)
