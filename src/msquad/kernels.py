"""Piecewise-polynomial error kernels of the corrected Simpson rule.

For k = 2..6 the rule's error on the unit interval is exactly
``integral_0^1 T_k(x) f^(k)(x) dx``, where ``T_k`` is a piecewise
polynomial of degree k that switches branch at x = 1/2.  This module
stores the left branch's coefficients in binary64, evaluates ``T_k`` in
Horner form (the right branch as its mirror image), and exposes the sharp
norm constants the error bounds are built from:

- ``C_k`` -- L1 norm of ``T_k`` on [0, 1]
- ``B_k`` -- sup norm of ``T_k`` on [0, 1]
- ``D_k = 2^(k+1) C_k`` and ``E_k = 2^(k+1) B_k`` -- the same constants
  rescaled to a width-2h panel.

:func:`scaled_constants` returns all four for one order.
"""

from __future__ import annotations

import math
from typing import NamedTuple

KERNEL_ORDERS = (2, 3, 4, 5, 6)

# Signed float coefficients of the left branch, float(c) * (-1)^k for each
# exact coefficient c of the unsigned branch (-1)^k T_k (a test pins them
# against the kernel it derives from the rule), for runtime Horner
# evaluation; the right branch is its mirror image (see kernel_eval).  The
# zeros keep their signs: at x = 0, Horner adds the constant term to a
# signed zero.
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
