from fractions import Fraction
from math import factorial

import pytest

from hkcert.series import (
    SeriesCoefficients,
    conjecture_threshold,
    secant_tangent_coeffs,
    zigzag_coeffs,
    zigzag_numbers,
)


def test_zigzag_numbers():
    assert zigzag_numbers(10) == [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521]


@pytest.mark.parametrize(
    "d, expected",
    [
        (1, Fraction(1)),
        (2, Fraction(1, 2)),
        (3, Fraction(1, 3)),
        (4, Fraction(5, 24)),
        (5, Fraction(2, 15)),
        (6, Fraction(61, 720)),
    ],
)
def test_series_division_values(d, expected):
    assert secant_tangent_coeffs(6).coefficient(d) == expected


def test_dual_paths_agree_through_order_20():
    division = secant_tangent_coeffs(20)
    recurrence = zigzag_coeffs(20)
    assert division.coefficients == recurrence.coefficients


@pytest.mark.parametrize(
    "d, expected",
    [
        (1, Fraction(2)),
        (2, Fraction(3, 2)),
        (3, Fraction(4, 3)),
        (4, Fraction(29, 24)),
        (5, Fraction(17, 15)),
        (6, Fraction(781, 720)),
    ],
)
def test_conjecture_threshold(d, expected):
    assert conjecture_threshold(d) == expected


def test_conjecture_threshold_matches_series_division():
    for d in range(1, 31):
        assert conjecture_threshold(d) == secant_tangent_coeffs(d).threshold(d)


def test_coefficients_positive_and_decreasing():
    coeffs = secant_tangent_coeffs(20).coefficients
    assert all(m > 0 for m in coeffs)
    assert all(a > b for a, b in zip(coeffs, coeffs[1:]))


def test_even_part_is_secant_and_odd_part_is_tangent():
    # sec contributes exactly the even coefficients, tan exactly the odd
    # ones; rebuild both quotient series and check the split.
    from hkcert.series import _series_quotient

    order = 12
    cos = [Fraction(0)] * (order + 1)
    sin = [Fraction(0)] * (order + 1)
    for j in range(0, order + 1, 2):
        cos[j] = Fraction((-1) ** (j // 2), factorial(j))
    for j in range(1, order + 1, 2):
        sin[j] = Fraction((-1) ** (j // 2), factorial(j))
    sec = _series_quotient([Fraction(1)], cos, order)
    tan = _series_quotient(sin, cos, order)
    coeffs = secant_tangent_coeffs(order)
    for d in range(1, order + 1):
        if d % 2:
            assert sec[d] == 0
            assert coeffs.coefficient(d) == tan[d]
        else:
            assert tan[d] == 0
            assert coeffs.coefficient(d) == sec[d]
    # sec(0) = 1: the even part contributes nothing at x = 0.
    assert sec[0] == 1


def test_series_coefficients_validation():
    with pytest.raises(ValueError):
        SeriesCoefficients(2, (Fraction(1),))
    with pytest.raises(ValueError):
        SeriesCoefficients(2, (Fraction(1), Fraction(2)))  # not decreasing
    with pytest.raises(ValueError):
        SeriesCoefficients(1, (Fraction(-1),))
    with pytest.raises(ValueError):
        secant_tangent_coeffs(0)
    with pytest.raises(ValueError):
        zigzag_numbers(-1)
    with pytest.raises(ValueError):
        secant_tangent_coeffs(3).coefficient(4)
