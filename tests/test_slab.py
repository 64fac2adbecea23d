import random
from fractions import Fraction
from math import comb, factorial, floor

import pytest
from hypothesis import given, strategies as st

from hkcert.rationals import RationalPolynomial
from hkcert.slab import _slab_numerator, slab_polynomial, vol_slab


def termwise_vol_slab(d: int, s: Fraction) -> Fraction:
    """Brute-force oracle: the inclusion-exclusion sum with one Fraction per term.

    This is the evaluation ``vol_slab`` used before it summed one integer
    numerator over d! b^d; both must give the same Fraction.
    """
    s = Fraction(s)
    if s <= 0:
        return Fraction(0)
    if s >= d:
        return Fraction(1)
    total = Fraction(0)
    for n in range(floor(s) + 1):
        term = (s - n) ** d / (factorial(n) * factorial(d - n))
        total += -term if n % 2 else term
    return total


def lattice_fraction(d: int, s: Fraction, n: int) -> Fraction:
    """Independent oracle: fraction of points a in [0, n)^d with sum(a) <= s*n.

    Counts by convolving the coordinate distributions (pure integer DP),
    so it shares nothing with the inclusion-exclusion formula.
    """
    counts = [1]
    for _ in range(d):
        prev = counts
        counts = [0] * (len(prev) + n - 1)
        running = 0
        for t in range(len(counts)):
            if t < len(prev):
                running += prev[t]
            if t - n >= 0 and t - n < len(prev):
                running -= prev[t - n]
            counts[t] = running
    limit = floor(s * n)
    return Fraction(sum(counts[: limit + 1]), n**d)


@pytest.mark.parametrize(
    "d, s, expected",
    [
        (2, 1, Fraction(1, 2)),
        (6, Fraction(3, 2), Fraction(241, 15360)),
        (5, 5, Fraction(1)),
        (1, Fraction(1, 2), Fraction(1, 2)),
        (3, Fraction(3, 2), Fraction(1, 2)),
        (3, -1, Fraction(0)),
        (4, Fraction(9, 2), Fraction(1)),
    ],
)
def test_vol_slab_values(d, s, expected):
    assert vol_slab(d, s) == expected


def test_vol_slab_rejects_bad_dimension():
    with pytest.raises(ValueError):
        vol_slab(0, Fraction(1, 2))


def test_integer_kernel_matches_termwise_oracle():
    rng = random.Random(20110)
    cases = []
    for _ in range(1500):
        d = rng.randint(1, 12)
        b = rng.choice([rng.randint(1, 40), rng.randint(1, 25600)])
        cases.append((d, Fraction(rng.randint(0, d * b), b)))
    for d in range(1, 13):
        cases += [(d, Fraction(0)), (d, Fraction(-1)), (d, Fraction(-7, 3)), (d, Fraction(d)),
                  (d, Fraction(d + 1)), (d, Fraction(4 * d + 1, 3)), (d, Fraction(1, 25600)),
                  (d, d - Fraction(1, 25600))]
        cases += [(d, Fraction(k)) for k in range(d + 1)]
    for d, s in cases:
        assert vol_slab(d, s) == termwise_vol_slab(d, s), (d, s)


def test_grid_numerators_share_one_denominator():
    for d in (1, 2, 5, 8):
        for b in (1, 2, 7, 40):
            for k in range(d * b + 1):
                expected = termwise_vol_slab(d, Fraction(k, b))
                assert Fraction(_slab_numerator(d, k, b), factorial(d) * b**d) == expected


def test_lattice_oracle_agrees():
    n = 64
    for d in (1, 2, 3, 4):
        for k in range(1, 4 * d):
            s = Fraction(k, 4)
            estimate = lattice_fraction(d, s, n)
            assert abs(estimate - vol_slab(d, s)) <= Fraction(2 * d, n)


def test_symmetry_monotonicity_continuity():
    for d in range(1, 9):
        grid = [Fraction(k, 8) for k in range(8 * d + 1)]
        previous = Fraction(0)
        for s in grid:
            value = vol_slab(d, s)
            assert 0 <= value <= 1
            assert value + vol_slab(d, d - s) == 1
            assert value >= previous
            previous = value


def test_piecewise_matches_pointwise():
    for d in (1, 2, 3, 6):
        poly = slab_polynomial(d)
        for k in range(16 * d + 1):
            s = Fraction(k, 16)
            assert poly.evaluate(s) == vol_slab(d, s)


def test_pieces_agree_at_breakpoints():
    for d in (2, 3, 5, 6, 8):
        poly = slab_polynomial(d)
        for k in range(1, d + 1):
            assert poly.piece(k - 1)(k) == poly.piece(k)(k)


def test_first_piece_is_power_over_factorial():
    for d in (1, 2, 6):
        first = slab_polynomial(d).piece(0)
        assert first == RationalPolynomial([0] * d + [Fraction(1, factorial(d))])


def test_last_piece_collapses_to_one():
    for d in (1, 2, 3, 7):
        assert slab_polynomial(d).piece(d) == RationalPolynomial([1])


def test_dim6_pieces():
    poly = slab_polynomial(6)
    s6 = RationalPolynomial([0] * 6 + [Fraction(1, 720)])
    shift1 = RationalPolynomial.shifted_power(1, 6, Fraction(1, 120))
    shift2 = RationalPolynomial.shifted_power(2, 6, Fraction(1, 48))
    assert poly.piece(0) == s6
    assert poly.piece(1) == s6 - shift1
    assert poly.piece(2) == s6 - shift1 + shift2


def test_dim1_piece_is_identity():
    assert slab_polynomial(1).piece(0) == RationalPolynomial([0, 1])


def test_piece_degrees_and_leading_coefficients():
    # Partial alternating binomial sums never cancel: the k-th piece has
    # exact degree d with leading coefficient (-1)^k C(d-1, k) / d!.
    for d in (2, 3, 6, 8):
        poly = slab_polynomial(d)
        for k in range(d):
            piece = poly.piece(k)
            assert piece.degree == d
            assert piece.coefficients[-1] == Fraction((-1) ** k * comb(d - 1, k), factorial(d))


@given(
    d=st.integers(min_value=1, max_value=7),
    numerator=st.integers(min_value=-8, max_value=64),
    denominator=st.integers(min_value=1, max_value=48),
)
def test_random_rational_properties(d, numerator, denominator):
    s = Fraction(numerator, denominator)
    value = vol_slab(d, s)
    assert 0 <= value <= 1
    assert slab_polynomial(d).evaluate(s) == value
    if 0 <= s <= d:
        assert value + vol_slab(d, d - s) == 1


def test_piece_out_of_range():
    with pytest.raises(ValueError):
        slab_polynomial(3).piece(4)
