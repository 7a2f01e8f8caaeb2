import math

import pytest

from msquad.errors import DerivativeUnavailableError, EvaluationError
from msquad.integrand import Integrand, Interval, UniformGrid


def test_interval_requires_increasing_finite_endpoints():
    iv = Interval(-1.0, 2.0)
    assert iv.width == 3.0
    assert iv.midpoint == 0.5
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, -1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.inf)
    with pytest.raises(ValueError, match="overflows"):
        Interval(-1e308, 1e308)


def test_grid_nodes_end_exactly_at_b():
    # 0.1 + 10 * 0.03 != 0.4 in binary64; the last node must still be b
    grid = UniformGrid(Interval(0.1, 0.4), 5)
    xs = grid.nodes()
    assert len(xs) == 11
    assert xs[0] == 0.1
    assert xs[-1] == 0.4
    assert grid.n_subintervals == 10
    steps = [b - a for a, b in zip(xs, xs[1:])]
    assert max(steps) - min(steps) < 1e-15


def test_grid_rejects_bad_pair_counts():
    iv = Interval(0.0, 1.0)
    with pytest.raises(ValueError):
        UniformGrid(iv, 0)
    with pytest.raises(ValueError):
        UniformGrid(iv, True)


def test_derivative_order_zero_is_the_function():
    f = Integrand.from_callables(math.exp, math.exp)
    assert f(0.3) == math.exp(0.3)
    assert f.derivative(0, 0.3) == f(0.3)
    assert f.derivative(1, 0.3) == math.exp(0.3)
    assert f.max_order == 1


def test_missing_order_raises_capability_error():
    f = Integrand.from_callables(math.sin, math.cos)
    with pytest.raises(DerivativeUnavailableError) as exc:
        f.derivative(2, 0.0)
    assert exc.value.order == 2
    # a bare callback has no derivatives at all
    g = Integrand(lambda x: x * x)
    with pytest.raises(DerivativeUnavailableError):
        g.derivative(1, 0.0)


def test_nonfinite_values_raise_with_abscissa():
    f = Integrand(lambda x: 1.0 / x if x else math.inf)
    with pytest.raises(EvaluationError) as exc:
        f(0.0)
    assert exc.value.abscissa == 0.0


def test_math_domain_errors_are_wrapped():
    f = Integrand(lambda x: math.log(x))
    with pytest.raises(EvaluationError) as exc:
        f(-2.0)
    assert exc.value.abscissa == -2.0


def test_first_derivative_override():
    calls = []

    def fake_df(x):
        calls.append(x)
        return 42.0

    f = Integrand.from_callables(math.exp, math.exp, math.exp)
    g = f.with_first_derivative(fake_df)
    assert g.derivative(1, 0.5) == 42.0
    assert g.derivative(2, 0.5) == math.exp(0.5)
    assert calls == [0.5]
