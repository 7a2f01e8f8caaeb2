"""Piecewise-polynomial error kernels of the corrected Simpson rule.

For k = 2..6 the rule's error on the unit interval is exactly
``integral_0^1 T_k(x) f^(k)(x) dx``, where ``T_k`` is a piecewise
polynomial of degree k that switches branch at x = 1/2.  This module
stores the branch polynomials with exact rational coefficients (expanded
from their factored forms on first use), evaluates them in Horner form
on binary64, and exposes the sharp norm constants the error bounds are
built from:

- ``C_k`` -- L1 norm of ``T_k`` on [0, 1]
- ``B_k`` -- sup norm of ``T_k`` on [0, 1]
- ``D_k = 2^(k+1) C_k`` and ``E_k = 2^(k+1) B_k`` -- the same constants
  rescaled to a width-2h panel.

:func:`scaled_constants` returns all four for one order.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

KERNEL_ORDERS = (2, 3, 4, 5, 6)

# -- exact polynomial helpers (coefficients ascending by power) --------------


def _poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> tuple[Fraction, ...]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _product(scale: Fraction, *factors: Sequence[Fraction]) -> tuple[Fraction, ...]:
    out: tuple[Fraction, ...] = (scale,)
    for f in factors:
        out = _poly_mul(out, f)
    return out


class PeanoKernel(NamedTuple):
    """One error kernel: exact branch coefficients plus its sign factor."""

    k: int
    left_poly: tuple[Fraction, ...]
    right_poly: tuple[Fraction, ...]
    sign: int


@functools.cache
def _kernels() -> dict[int, PeanoKernel]:
    """The exact kernels, expanded from their factored forms on first use:
    a run that only evaluates them in binary64 never loads ``fractions``."""
    from fractions import Fraction as F

    def x_minus(c: Fraction) -> tuple[Fraction, ...]:
        return (-c, F(1))

    x = (F(0), F(1))
    # Branch polynomials: T_k = (-1)^k P_k on [0, 1/2), (-1)^k Q_k on [1/2, 1].
    p_polys = {
        2: (F(1, 60), F(-7, 30), F(1, 2)),
        3: _product(F(1, 6), x, x_minus(F(1, 5)), x_minus(F(1, 2))),
        4: _product(F(1, 24), x, x, x_minus(F(1, 3)), x_minus(F(3, 5))),
        5: _product(F(1, 120), x, x, x, x_minus(F(1, 2)), x_minus(F(2, 3))),
        6: _product(F(1, 720), x, x, x, x, (F(1, 2), F(-7, 5), F(1))),
    }
    q_polys = {
        2: (F(17, 60), F(-23, 30), F(1, 2)),
        # The 4/5 root is forced by the mirror symmetry Q_3(x) = -P_3(1 - x)
        # and by the zero-mean identity; both oracle tests pin it down.
        3: _product(F(1, 6), x_minus(F(1)), x_minus(F(1, 2)), x_minus(F(4, 5))),
        4: _product(F(1, 24), x_minus(F(1)), x_minus(F(1)), x_minus(F(2, 3)), x_minus(F(2, 5))),
        5: _product(
            F(1, 120),
            x_minus(F(1)), x_minus(F(1)), x_minus(F(1)),
            x_minus(F(1, 2)), x_minus(F(1, 3)),
        ),
        6: _product(
            F(1, 720),
            x_minus(F(1)), x_minus(F(1)), x_minus(F(1)), x_minus(F(1)),
            (F(1, 10), F(-3, 5), F(1)),
        ),
    }
    return {k: PeanoKernel(k, p_polys[k], q_polys[k], (-1) ** k) for k in KERNEL_ORDERS}


# Signed float coefficients of the left branch, float(c) * (-1)^k of each
# exact coefficient c (a test pins them), for runtime Horner evaluation; the
# right branch is its mirror image (see kernel_eval).  The zeros keep their
# signs: at x = 0, Horner adds the constant term to a signed zero.
_LEFT_F: dict[int, tuple[float, ...]] = {
    2: (0.016666666666666666, -0.23333333333333334, 0.5),
    3: (-0.0, -0.016666666666666666, 0.11666666666666667, -0.16666666666666666),
    4: (0.0, 0.0, 0.008333333333333333, -0.03888888888888889, 0.041666666666666664),
    5: (-0.0, -0.0, -0.0, -0.002777777777777778, 0.009722222222222222, -0.008333333333333333),
    6: (0.0, 0.0, 0.0, 0.0, 0.0006944444444444445, -0.0019444444444444444, 0.001388888888888889),
}

# Closed-form norm constants, evaluated to binary64 exactly once.
_SQRT19 = math.sqrt(19.0)
_C: dict[int, float] = {
    2: 19.0 * _SQRT19 / 10125.0,
    3: 253.0 / 360000.0,
    4: 1.0 / 14580.0,
    5: 1.0 / 115200.0,
    6: 1.0 / 604800.0,
}
_B: dict[int, float] = {
    2: 1.0 / 40.0,
    3: 7.0 / 20250.0 + 19.0 * _SQRT19 / 81000.0,
    4: 1.0 / 5760.0,
    5: 1.0 / 58320.0,
    # T_6 >= 0 rises on [0, 1/2] and is even about 1/2, so it peaks there.
    6: 1.0 / 230400.0,
}


class KernelConstants(NamedTuple):
    """Norm constants of one kernel and their width-2h panel rescalings."""

    k: int
    c: float
    d: float
    b: float
    e: float


def _check_order(k: int) -> None:
    if k not in KERNEL_ORDERS:
        raise ValueError(f"kernel order must be one of {KERNEL_ORDERS}, got {k!r}")


def kernel(k: int) -> PeanoKernel:
    """The exact kernel record for order ``k``."""
    _check_order(k)
    return _kernels()[k]


def _horner(coeffs: tuple[float, ...], x: float) -> float:
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def kernel_eval(k: int, x: float) -> float:
    """Evaluate ``T_k`` at ``x`` in [0, 1].

    From x = 1/2 on (the branches agree there) it is the mirror image
    ``(-1)^k T_k(1 - x)`` of the left branch: ``1 - x`` is exact there
    (Sterbenz), and the left branch's expansion about 0, used near 0, does
    not cancel as the right branch's does near 1.  So ``T_k(1)`` is exactly
    0 for k >= 3.
    """
    _check_order(k)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"kernel argument must lie in [0, 1], got {x!r}")
    if x < 0.5:
        return _horner(_LEFT_F[k], x)
    return (-1) ** k * _horner(_LEFT_F[k], 1.0 - x)


def scaled_constants(k: int) -> KernelConstants:
    """``(C_k, B_k, D_k, E_k)`` with ``D_k = 2^(k+1) C_k``, ``E_k = 2^(k+1) B_k``.

    The factor is a power of two, so the scaled values are exact
    multiples of the stored closed forms.
    """
    _check_order(k)
    scale = float(2 ** (k + 1))
    c, b = _C[k], _B[k]
    return KernelConstants(k=k, c=c, d=scale * c, b=b, e=scale * b)
