import io
import math
from fractions import Fraction

import pytest

from helpers import CORPUS, poly_integrand, ulp_distance
from msquad.cli import run
from msquad.errors import EvaluationError, ReferenceConvergenceError
from msquad.integrand import Integrand, Interval
from msquad.jets import expression_integrand
from msquad.reference import (
    ConvergenceRow,
    _fit_order,
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
    with pytest.raises(ReferenceConvergenceError) as exc:
        reference_integral(EXP, SYM, tol=1e-14, segment_limit=1)
    assert abs(exc.value.best_value - (math.e - 1.0 / math.e)) < 1e-10
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
