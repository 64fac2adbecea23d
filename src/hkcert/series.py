"""Exact Maclaurin coefficients of sec(x) + tan(x).

The coefficient of x^d is m_d = E_d / d!, where E_d is the number of
alternating permutations of d letters (the Euler zigzag numbers), and
1 + m_d is the conjectured universal lower bound for the Hilbert-Kunz
multiplicity of a non-regular ring of dimension d.

The coefficients come from one integer path, ``zigzag_coeffs``: the
boustrophedon (Seidel triangle) recurrence for E_d, followed by a
division by d!.  The test suite keeps an independent second path, the
truncated exact power-series division tan = sin/cos and sec = 1/cos,
and checks the two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

__all__ = [
    "SeriesCoefficients",
    "conjecture_threshold",
    "zigzag_coeffs",
    "zigzag_numbers",
]


@dataclass(frozen=True)
class SeriesCoefficients:
    """Coefficients m_1..m_order of sec(x) + tan(x) = 1 + sum m_d x^d."""

    order: int
    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.order < 1 or len(self.coefficients) != self.order:
            raise ValueError("coefficient list must hold m_1..m_order")
        if any(m <= 0 for m in self.coefficients):
            raise ValueError("all m_d must be positive")
        # m_d decreases strictly; guaranteed on the range we ever compute.
        window = self.coefficients[: min(self.order, 20)]
        if any(a <= b for a, b in zip(window, window[1:])):
            raise ValueError("m_d must be strictly decreasing")

    def coefficient(self, d: int) -> Fraction:
        """m_d for 1 <= d <= order."""
        if not 1 <= d <= self.order:
            raise ValueError(f"m_{d} not computed (order {self.order})")
        return self.coefficients[d - 1]

    def threshold(self, d: int) -> Fraction:
        """The conjectured bound 1 + m_d."""
        return 1 + self.coefficient(d)


def zigzag_numbers(count: int) -> list[int]:
    """Euler zigzag numbers E_0..E_count via the boustrophedon recurrence.

    Row n of the Seidel triangle starts at 0 and accumulates the previous
    row in reverse; its last entry is E_n.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    numbers = [1]
    row = [1]
    for n in range(1, count + 1):
        prev = row
        row = [0]
        for k in range(1, n + 1):
            row.append(row[k - 1] + prev[n - k])
        numbers.append(row[n])
    return numbers


def zigzag_coeffs(order: int) -> SeriesCoefficients:
    """m_1..m_order as E_d / d!."""
    if order < 1:
        raise ValueError("order must be >= 1")
    zig = zigzag_numbers(order)
    return SeriesCoefficients(order, tuple(Fraction(zig[d], factorial(d)) for d in range(1, order + 1)))


def conjecture_threshold(d: int) -> Fraction:
    """The conjectured Hilbert-Kunz lower bound 1 + m_d for dimension d.

    Computed on the integer boustrophedon path (``zigzag_coeffs``); the
    test suite checks it against exact power-series division.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return zigzag_coeffs(d).threshold(d)
