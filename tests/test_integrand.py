import copy
import math
import pickle
from functools import partial

import pytest

from helpers import BENCH_FAMILIES, JET_CORPUS
from msquad import jets
from msquad.bounds import BoundReport, DerivativeRange, estimate_derivative_range
from msquad.errors import DerivativeUnavailableError, EvaluationError, InvalidRangeError
from msquad.expressions import Var, parse
from msquad.integrand import Integrand, Interval, UniformGrid
from msquad.jets import expression_integrand
from msquad.reference import reference_integral
from msquad.rules import Rule, _pair_sum


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
    # a + 10*h is 0.29999999999999993 here; the last node must still be b
    grid = UniformGrid(Interval(0.1, 0.3), 5)
    xs = list(grid.nodes())
    assert len(xs) == 11
    assert xs[0] == 0.1
    assert xs[-1] == 0.3
    assert grid.n_subintervals == 10
    steps = [b - a for a, b in zip(xs, xs[1:])]
    assert max(steps) - min(steps) < 1e-15


def test_grid_rejects_bad_pair_counts():
    iv = Interval(0.0, 1.0)
    with pytest.raises(ValueError):
        UniformGrid(iv, 0)
    with pytest.raises(ValueError):
        UniformGrid(iv, True)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Integrand(math.exp, max_order=7), r"^max_order must be in 0\.\.6$"),
        (lambda: Integrand.from_callables(math.exp, *[math.exp] * 7),
         "^at most 6 derivative orders supported$"),
    ],
    ids=["integrand", "from-callables"],
)
def test_derivative_orders_stop_at_six(build, message):
    with pytest.raises(ValueError, match=message):
        build()


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


_UNIT = Interval(0.0, 1.0)


@pytest.mark.parametrize(
    "cls, fields, bad, error",
    [
        (Interval, (0.0, 1.0), {"b": -1.0}, ValueError),
        (Interval, (0.0, 1.0), {"a": -math.inf}, ValueError),
        (UniformGrid, (_UNIT, 4), {"n_pairs": 0}, ValueError),
        (UniformGrid, (_UNIT, 4), {"n_pairs": True}, ValueError),
        # the spacing 5e-324/2 rounds to 0
        (UniformGrid, (_UNIT, 4), {"interval": Interval(0.0, 5e-324), "n_pairs": 1},
         ValueError),
        (DerivativeRange, (4, -1.0, 1.0), {"lower": 2.0}, InvalidRangeError),
        (DerivativeRange, (4, -1.0, 1.0), {"k": 7}, ValueError),
        (BoundReport, (4, 1.0, 2.0, 3.0, 4.0, 1.0, True), {"peano_classic": math.inf},
         EvaluationError),
    ],
    ids=["interval-reversed", "interval-infinite", "grid-zero-pairs", "grid-bool-pairs",
         "grid-underflow", "range-reversed", "range-order", "report-overflow"],
)
def test_records_validate_on_every_construction_path(cls, fields, bad, error):
    good = cls(*fields)
    invalid = tuple(bad.get(name, value) for name, value in zip(cls._fields, fields))
    raw = tuple.__new__(cls, invalid)  # the fields as stored, unchecked
    paths = {
        "constructor": lambda: cls(*invalid),
        "keywords": lambda: cls(**dict(zip(cls._fields, invalid))),
        "_make": lambda: cls._make(invalid),
        "_replace": lambda: good._replace(**bad),
        "copy": lambda: copy.copy(raw),
        "pickle": lambda: pickle.loads(pickle.dumps(raw)),
    }
    for name, build in paths.items():
        with pytest.raises(error):
            build()
            pytest.fail(f"{name} built {raw!r}")
    assert pickle.loads(pickle.dumps(good)) == copy.copy(good) == good


def test_records_are_immutable_named_tuples():
    iv = Interval(0.0, 1.0)
    assert repr(iv) == "Interval(a=0.0, b=1.0)"
    assert repr(UniformGrid(iv, 2)) == "UniformGrid(interval=Interval(a=0.0, b=1.0), n_pairs=2)"
    assert repr(DerivativeRange(4, -1.0, 1.0)) == (
        "DerivativeRange(k=4, lower=-1.0, upper=1.0, provenance='user-supplied')")
    assert repr(parse("-x^2")) == "Neg(arg=BinOp(op='^', left=Var(), right=Num(value=2.0)))"
    # tuples: they unpack, index and compare equal to a plain tuple of their fields
    a, b = iv
    assert (a, b, iv[1]) == (0.0, 1.0, 1.0)
    assert iv == (0.0, 1.0)
    assert not Var()
    with pytest.raises(AttributeError):
        iv.a = 2.0
    with pytest.raises(AttributeError):
        iv.c = 2.0


# -- the fast interface ----------------------------------------------------------

# The bench families and the JET_CORPUS texts that are smooth on FAST_IV: no
# point value, jet, node or segment fails there, so every fast result stands.
FAST_IV = Interval(0.25, 1.25)
_FAILING_ON_FAST_IV = {
    "exp(1000)", "log(x-1)", "log(0)", "sqrt(x-1)", "sqrt(-x)", "1/(x-1)", "x/(x-1)",
    "x/0", "(x-1)^-1", "0^-1", "(1e-200*x)^-2", "(1e200*x)^3", "x^2147483647",
    "x^-2147483648", "x^2147483648", "x^2147483649", "(x-1)^1.5", "x^1e999", "x^-1e999",
    "(1e-200*x)^(0-2)",
}
FAST_TEXTS = BENCH_FAMILIES + tuple(t for t in JET_CORPUS if t not in _FAILING_ON_FAST_IV)


def _fast_paths(f: Integrand) -> list:
    """What the range estimator (k = 1..6), both composite rules' pair sums
    and the reference oracle give for ``f`` on FAST_IV."""
    return ([estimate_derivative_range(f, k, FAST_IV) for k in range(1, 7)]
            + [_pair_sum(f, UniformGrid(FAST_IV, 64), rule)
               for rule in (Rule.SIMPSON, Rule.MODIFIED_SIMPSON)]
            + [reference_integral(f, FAST_IV, tol=1e-10)])


def _count_checked(monkeypatch) -> list:
    """The abscissae of every checked call, ``f(x)`` or ``f.derivative``, from now on."""
    xs = []
    checked = Integrand._checked
    monkeypatch.setattr(Integrand, "_checked",
                        lambda f, what, x, *call: xs.append(x) or checked(f, what, x, *call))
    return xs


@pytest.mark.parametrize("text", FAST_TEXTS)
def test_the_fast_paths_make_no_checked_call(text, monkeypatch):
    # A fast path that is renamed or bypassed would replay through f(x) or
    # f.derivative: the same bits, but a silent slowdown.
    f = expression_integrand(text)
    checked = _count_checked(monkeypatch)
    _fast_paths(f)
    assert checked == []


@pytest.mark.parametrize("text", FAST_TEXTS)
def test_the_estimator_calls_the_order_k_jet_once_per_abscissa(text, monkeypatch):
    # A checked twin's provider sees each abscissa the estimator evaluates.
    twin_of = expression_integrand(text)._fast
    seen = []
    twin = Integrand(twin_of.value, lambda k, x: seen.append(x) or twin_of.derivative(k, x), 6)
    calls = []
    compile_jet = jets.compile_jet

    def counted(expr, order):
        jet = compile_jet(expr, order)
        return lambda x: calls.append((order, x)) or jet(x)

    monkeypatch.setattr(jets, "compile_jet", counted)
    f = expression_integrand(text)
    for k in range(1, 7):
        seen.clear()
        want = estimate_derivative_range(twin, k, FAST_IV)
        calls.clear()
        assert estimate_derivative_range(f, k, FAST_IV) == want
        assert calls == [(k, x) for x in seen]


def test_a_callable_integrand_takes_only_the_checked_paths(monkeypatch):
    # from_callables leaves the fast interface None: every value the paths
    # take is one checked call of the callables, with the expression's bits.
    g = expression_integrand(BENCH_FAMILIES[0])
    calls = []

    def counted(fn, *args):
        calls.append(args[-1])
        return fn(*args)

    derivs = [partial(counted, g._fast.derivative, k) for k in range(1, 7)]
    f = Integrand.from_callables(partial(counted, g._fast.value), *derivs)
    assert f._fast is None
    checked = _count_checked(monkeypatch)
    assert _fast_paths(f) == _fast_paths(g)
    assert checked == calls != []
