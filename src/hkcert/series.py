"""Exact Maclaurin coefficients of sec(x) + tan(x).

The coefficient of x^d is m_d = E_d / d!, where E_d is the number of
alternating permutations of d letters (the Euler zigzag numbers), and
1 + m_d is the conjectured universal lower bound for the Hilbert-Kunz
multiplicity of a non-regular ring of dimension d.

The coefficients come from one integer path, ``zigzag_numbers``: the
boustrophedon (Seidel triangle) recurrence for E_d, followed by a
division by d!; ``zigzag_coeffs`` returns the plain tuple
(m_1, ..., m_order) and ``conjecture_threshold`` divides only E_d.  The
test suite keeps an independent second path, the truncated exact
power-series division tan = sin/cos and sec = 1/cos, and checks the two
against each other.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .rationals import _integer

__all__ = ["conjecture_threshold", "zigzag_coeffs"]


# Cost cap on the series order: the largest order whose threshold 1 + m_d
# fits the print budget, rationals._MAX_DIGITS (1 + m_1562 has a part of
# more digits).  Order 1561 took 0.9 s and order 3000 5.5-7.5 s (Python 3.11,
# 2-core shared machine): the triangle's order^2 additions of ints of up to
# order * log2(order) bits grow about like order^3.
_MAX_ORDER = 1561


def zigzag_numbers(count: int) -> list[int]:
    """Euler zigzag numbers E_0..E_count via the boustrophedon recurrence.

    Row n of the Seidel triangle starts at 0 and accumulates the previous
    row in reverse; its last entry is E_n.
    """
    count = _integer("count", count, 0)
    numbers = [1]
    row = [1]
    for n in range(1, count + 1):
        prev = row
        row = [0]
        for k in range(1, n + 1):
            row.append(row[k - 1] + prev[n - k])
        numbers.append(row[n])
    return numbers


def zigzag_coeffs(order: int) -> tuple[Fraction, ...]:
    """The tuple (m_1, ..., m_order), each m_d = E_d / d!.

    Raises ValueError, before the triangle is built, for an order above
    ``_MAX_ORDER``.
    """
    order = _integer("order", order, 1, _MAX_ORDER)
    zig = zigzag_numbers(order)
    return tuple(Fraction(zig[d], factorial(d)) for d in range(1, order + 1))


def conjecture_threshold(d: int) -> Fraction:
    """The conjectured Hilbert-Kunz lower bound 1 + m_d for dimension d.

    Computed on the integer boustrophedon path as 1 + E_d / d!, one
    ``Fraction`` from the last zigzag number, with d capped at
    ``_MAX_ORDER`` before any work, as ``zigzag_coeffs`` caps its order;
    the test suite checks it against exact power-series division.
    """
    d = _integer("d", d, 1, _MAX_ORDER)
    return Fraction(factorial(d) + zigzag_numbers(d)[-1], factorial(d))
