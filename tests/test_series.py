from fractions import Fraction
from math import factorial

import pytest

from hkcert import series
from hkcert.cli import main
from hkcert.rationals import DISPLAY_DIGITS, decimal_render, format_rational
from hkcert.series import conjecture_threshold, zigzag_coeffs, zigzag_numbers


# -- oracle: the series by exact power-series division ----------------------


def _series_quotient(num: list[Fraction], den: list[Fraction], order: int) -> list[Fraction]:
    """Coefficients of num/den as a power series through x**order (den[0] != 0)."""
    out: list[Fraction] = []
    for k in range(order + 1):
        acc = num[k] if k < len(num) else Fraction(0)
        for j in range(1, k + 1):
            if j < len(den):
                acc -= den[j] * out[k - j]
        out.append(acc / den[0])
    return out


def secant_tangent_coeffs(order: int) -> tuple[Fraction, ...]:
    """Compute (m_1, ..., m_order) by exact power-series division, independently of the
    boustrophedon recurrence: tan = sin/cos and sec = 1/cos, with sin and cos
    built from factorials.

    Internally works through x**(order + 2) to guard the division loop
    against degree loss at the truncation boundary.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    working = order + 2
    cos = [Fraction(0)] * (working + 1)
    sin = [Fraction(0)] * (working + 1)
    for j in range(0, working + 1, 2):
        cos[j] = Fraction((-1) ** (j // 2), factorial(j))
    for j in range(1, working + 1, 2):
        sin[j] = Fraction((-1) ** (j // 2), factorial(j))
    sec = _series_quotient([Fraction(1)], cos, working)
    tan = _series_quotient(sin, cos, working)
    return tuple(sec[d] + tan[d] for d in range(1, order + 1))


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
    assert secant_tangent_coeffs(6)[d - 1] == expected
    assert zigzag_coeffs(6)[d - 1] == expected


def test_dual_paths_agree_through_order_20():
    assert secant_tangent_coeffs(20) == zigzag_coeffs(20)


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
        assert conjecture_threshold(d) == 1 + secant_tangent_coeffs(d)[-1]


def test_coefficients_positive_and_decreasing():
    coeffs = zigzag_coeffs(20)
    assert all(m > 0 for m in coeffs)
    assert all(a > b for a, b in zip(coeffs, coeffs[1:]))


def test_even_part_is_secant_and_odd_part_is_tangent():
    # sec contributes exactly the even coefficients, tan exactly the odd
    # ones; rebuild both quotient series and check the split.
    order = 12
    cos = [Fraction(0)] * (order + 1)
    sin = [Fraction(0)] * (order + 1)
    for j in range(0, order + 1, 2):
        cos[j] = Fraction((-1) ** (j // 2), factorial(j))
    for j in range(1, order + 1, 2):
        sin[j] = Fraction((-1) ** (j // 2), factorial(j))
    sec = _series_quotient([Fraction(1)], cos, order)
    tan = _series_quotient(sin, cos, order)
    for d, m in enumerate(zigzag_coeffs(order), start=1):
        if d % 2:
            assert sec[d] == 0
            assert m == tan[d]
        else:
            assert tan[d] == 0
            assert m == sec[d]
    # sec(0) = 1: the even part contributes nothing at x = 0.
    assert sec[0] == 1


def test_series_coefficients_validation():
    with pytest.raises(ValueError):
        zigzag_coeffs(0)
    with pytest.raises(ValueError):
        zigzag_numbers(-1)
    with pytest.raises(ValueError):
        conjecture_threshold(0)
    assert len(zigzag_coeffs(3)) == 3


def test_conjecture_threshold_is_one_plus_last_coefficient():
    # conjecture_threshold divides only E_d by d!; zigzag_coeffs(d) is a
    # prefix of zigzag_coeffs(300), so one tuple serves every d.
    coeffs = zigzag_coeffs(300)
    for d in (1, 2, 150, 300):
        assert zigzag_coeffs(d)[-1] == coeffs[d - 1]
    for d in range(1, 301):
        assert conjecture_threshold(d) == 1 + coeffs[d - 1], d


def test_rejects_order_beyond_cap_before_the_triangle(monkeypatch):
    # The cap is the library's: the first order past it raises before any
    # row of the Seidel triangle or any factorial exists, for the
    # coefficients and the threshold.
    assert series._MAX_ORDER == 1561
    monkeypatch.setattr(series, "zigzag_numbers", lambda *a: pytest.fail("triangle built"))
    monkeypatch.setattr(series, "factorial", lambda *a: pytest.fail("factorial computed"))
    for call, name in ((zigzag_coeffs, "order"), (conjecture_threshold, "d")):
        with pytest.raises(ValueError, match=f"^{name} must be <= 1561, got 1562$"):
            call(series._MAX_ORDER + 1)


def test_md_prints_the_series_division_values(capsys):
    order = 200
    expected = "".join(
        f"{d}\t{format_rational(m)}\t{format_rational(1 + m)}\t{decimal_render(1 + m, DISPLAY_DIGITS)}\n"
        for d, m in enumerate(secant_tangent_coeffs(order), start=1)
    )
    assert main(["md", "--max", str(order)]) == 0
    assert capsys.readouterr().out == expected
