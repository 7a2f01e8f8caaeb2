"""Independent mpmath oracle for the benchmark's correctness checks.

Nothing here imports msquad.  Expressions are translated to Python with
mpmath functions (``^`` becomes ``**``; both bind tighter than unary minus
and associate to the right), integrals come from ``mp.quad`` over short
pieces, derivatives from ``mp.diff``/``mp.diffs``, rule values are the
textbook formulas summed at 30 digits, and the Peano kernels are derived
from the corrected rule itself.  All of it runs in the parent process,
outside the timed region and outside ``setup_s``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp

DPS = 30
_NS = {name: getattr(mp, name) for name in ("exp", "log", "sin", "cos", "tan", "sqrt")}
_NS.update(pi=mp.pi, e=mp.e)
_PIECE = 0.25  # mp.quad runs on pieces no wider than this
_GRID = 64     # samples per interval when bracketing derivative extrema
_GOLDEN_STEPS = 20


@lru_cache(maxsize=None)
def function(text: str):
    """The expression ``text`` as an mpmath callable of ``x``."""
    code = compile(text.replace("^", "**"), "<expr>", "eval")
    return lambda x: eval(code, {"__builtins__": {}}, dict(_NS, x=x))


def _pieces(a: float, b: float) -> list:
    m = max(1, math.ceil((b - a) / _PIECE))
    return [mp.mpf(a) + (mp.mpf(b) - mp.mpf(a)) * i / m for i in range(m + 1)]


@lru_cache(maxsize=None)
def _integral_mp(text: str, a: float, b: float):
    with mp.workdps(DPS):
        return mp.quad(function(text), _pieces(a, b))


def integral(text: str, a: float, b: float) -> tuple[float, float]:
    """``(integral f, integral |f|)`` over [a, b].

    The second is only a scale for tolerances, so a midpoint sum with 64
    points per piece is enough for it.
    """
    f = function(text)
    value = _integral_mp(text, a, b)
    m = 64 * max(1, math.ceil((b - a) / _PIECE))
    with mp.workdps(15):
        h = mp.mpf(b - a) / m
        absval = h * mp.fsum(abs(f(a + (i + 0.5) * h)) for i in range(m))
    return float(value), float(absval)


def derivative(text: str, x: float, k: int) -> float:
    with mp.workdps(DPS):
        return float(mp.diff(function(text), mp.mpf(x), k))


def rule_value(text: str, a: float, b: float, rule: str, n: int) -> float:
    """The composite ``rule`` over ``n`` pairs (single panel for the midpoint rules)."""
    return float(_rule_mp(text, a, b, rule, n))


def rule_error(text: str, a: float, b: float, rule: str, n: int) -> float:
    """``|rule - integral|``, formed at 30 digits (it may be far below one ulp of either)."""
    with mp.workdps(DPS):
        return float(abs(_rule_mp(text, a, b, rule, n) - _integral_mp(text, a, b)))


@lru_cache(maxsize=None)
def _rule_mp(text: str, a: float, b: float, rule: str, n: int):
    f = function(text)
    with mp.workdps(DPS):
        a_, b_ = mp.mpf(a), mp.mpf(b)
        if rule in ("midpoint", "cmidpoint"):
            w = b_ - a_
            value = w * f((a_ + b_) / 2)
            if rule == "cmidpoint":
                value += w * w / 24 * (mp.diff(f, b_) - mp.diff(f, a_))
            return value
        h = (b_ - a_) / (2 * n)
        fs = [f(a_ + j * h) for j in range(2 * n + 1)]
        if rule == "simpson":
            weights = (1, 4, 1)
            scale = h / 3
        else:
            weights = (7, 16, 7)
            scale = h / 15
        total = mp.fsum(
            weights[0] * fs[j - 1] + weights[1] * fs[j] + weights[2] * fs[j + 1]
            for j in range(1, 2 * n, 2)
        )
        value = scale * total
        if rule == "msimpson":
            value -= h * h / 15 * (mp.diff(f, b_) - mp.diff(f, a_))
        return value


def leading_estimate(text: str, a: float, b: float, n: int) -> float:
    """``h^6/9450 * (f^(5)(b) - f^(5)(a))``."""
    h = (b - a) / (2 * n)
    return h**6 / 9450 * (derivative(text, b, 5) - derivative(text, a, 5))


@lru_cache(maxsize=None)
def derivative_extrema(text: str, a: float, b: float) -> dict[int, tuple[float, float]]:
    """``{k: (min f^(k), max f^(k))}`` on [a, b] for k = 2..6.

    Samples all orders on a uniform grid with ``mp.diffs``, then polishes
    each extreme by golden-section search on the bracket around it.
    """
    f = function(text)
    with mp.workdps(DPS):
        xs = [mp.mpf(a) + (mp.mpf(b) - mp.mpf(a)) * i / _GRID for i in range(_GRID + 1)]
        table = [list(mp.diffs(f, x, 6)) for x in xs]
        out = {}
        for k in range(2, 7):
            vals = [row[k] for row in table]
            ends = []
            for sign in (1, -1):
                i = min(range(len(xs)), key=lambda j: sign * vals[j])
                lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, _GRID)]
                ends.append(sign * _golden(lambda x: sign * mp.diff(f, x, k), lo, hi,
                                           sign * vals[i]))
            out[k] = (float(ends[0]), float(ends[1]))
    return out


def _golden(g, lo, hi, best):
    """Smallest value of ``g`` found on [lo, hi], starting from ``best``."""
    r = (mp.sqrt(5) - 1) / 2
    c, d = hi - r * (hi - lo), lo + r * (hi - lo)
    gc, gd = g(c), g(d)
    for _ in range(_GOLDEN_STEPS):
        if gc < gd:
            hi, d, gd = d, c, gc
            c = hi - r * (hi - lo)
            gc = g(c)
        else:
            lo, c, gc = c, d, gd
            d = lo + r * (hi - lo)
            gd = g(d)
    return min(best, gc, gd)


def peano_kernel(k: int, t: float) -> float:
    """Peano kernel of order ``k`` of the corrected Simpson rule on [0, 1].

    With ``E(f) = integral_0^1 f - Q(f)`` and
    ``Q(f) = [7 f(0) + 16 f(1/2) + 7 f(1)]/30 - [f'(1) - f'(0)]/60``,
    ``E(f) = integral_0^1 K_k(t) f^(k)(t) dt`` where
    ``K_k(t) = E_x[(x - t)_+^(k-1)] / (k-1)!``.

    At t = 0 and t = 1 the kernel takes its limit from inside (0, 1), as a
    piecewise polynomial does; the derivative term jumps there.
    """
    with mp.workdps(DPS):
        t = mp.mpf(t)

        def right_of_t(x):
            return x > t or x == t == 1

        def g(x):
            return (x - t) ** (k - 1) if right_of_t(x) else mp.mpf(0)

        def dg(x):
            return (k - 1) * (x - t) ** (k - 2) if right_of_t(x) else mp.mpf(0)

        exact = (1 - t) ** k / k
        rule = (7 * g(0) + 16 * g(mp.mpf(1) / 2) + 7 * g(1)) / 30 - (dg(1) - dg(0)) / 60
        return float((exact - rule) / mp.factorial(k - 1))


@lru_cache(maxsize=None)
def kernel_scale(k: int) -> float:
    """Largest |K_k| on a fine grid: the scale for kernel tolerances."""
    return max(abs(peano_kernel(k, i / 200)) for i in range(201))
