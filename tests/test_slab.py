import random
from fractions import Fraction
from math import comb, factorial, floor

import pytest
from hypothesis import given, strategies as st

from hkcert import slab
from hkcert.slab import _grid_numerators, _slab_numerator, vol_slab


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


def recurrence_vol_slab(d: int, s: Fraction) -> Fraction:
    """Independent oracle: the Irwin-Hall CDF recurrence, no binomials or inclusion-exclusion.

    v_1(s) = s clamped to [0, 1], and
    v_d(s) = (s v_{d-1}(s) + (d - s) v_{d-1}(s - 1)) / d.
    """
    s = Fraction(s)
    # values[j] = v_m(s - j), from m = 1 up to m = d.
    values = [min(max(s - j, Fraction(0)), Fraction(1)) for j in range(d)]
    for m in range(2, d + 1):
        values = [((s - j) * values[j] + (m - s + j) * values[j + 1]) / m for j in range(d - m + 1)]
    return values[0]


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


def test_vol_slab_rejects_dimension_beyond_cap(monkeypatch):
    # Checked before any numerator or d! is computed, even where the volume is 0 or 1.
    monkeypatch.setattr(slab, "_slab_numerator", lambda *a: pytest.fail("numerator computed"))
    monkeypatch.setattr(slab, "factorial", lambda *a: pytest.fail("factorial computed"))
    assert slab._MAX_DIM == 512
    for d in (513, 10**8):
        for s in (Fraction(1, 2), 0, d):
            with pytest.raises(ValueError, match=f"^d must be <= 512, got {d}$"):
                vol_slab(d, s)


def test_vol_slab_admits_dimension_at_cap(monkeypatch):
    monkeypatch.setattr(slab, "_slab_numerator", lambda *a: 1)
    monkeypatch.setattr(slab, "factorial", lambda d: 1)
    assert vol_slab(512, Fraction(1, 2)) == Fraction(1, 2**512)


def test_vol_slab_rejects_long_slice_beyond_cap(monkeypatch):
    # Checked before any power or d! is formed; the bit length of s is that of
    # the larger of its numerator and denominator.  The first s of each form
    # past the work budget.
    monkeypatch.setattr(slab, "_slab_numerator", lambda *a: pytest.fail("numerator computed"))
    monkeypatch.setattr(slab, "factorial", lambda *a: pytest.fail("factorial computed"))
    assert slab._MAX_SLAB_BITS == 2**17
    for d, s, bits in [(512, Fraction(2**256 + 1, 2**248), 512 * 257), (512, Fraction(1, 2**256), 512 * 257),
                       (1, Fraction(1, 2**131072), 131073), (3, 2 + Fraction(1, 2**43689), 3 * 43691)]:
        with pytest.raises(ValueError, match=f"^summed slab sizes .* must be <= 131072, got {bits}$"):
            vol_slab(d, s)


def test_vol_slab_admits_long_slice_at_cap(monkeypatch):
    # The last s of each form inside the work budget, and each form at half
    # the budget and just past it: one volume may take the whole budget.
    monkeypatch.setattr(slab, "_slab_numerator", lambda *a: 1)
    monkeypatch.setattr(slab, "factorial", lambda d: 1)
    for d, s, bits in [(512, Fraction(2**255 + 1, 2**247), 2**17), (512, Fraction(1, 2**255), 2**17),
                       (1, Fraction(1, 2**131071), 2**17), (3, 2 + Fraction(1, 2**43688), 3 * 43690),
                       (512, Fraction(2**127 + 1, 2**119), 2**16), (512, Fraction(1, 2**127), 2**16),
                       (1, Fraction(1, 2**65535), 2**16), (512, Fraction(2**128 + 1, 2**120), 512 * 129),
                       (512, Fraction(1, 2**128), 512 * 129), (1, Fraction(1, 2**65536), 65537),
                       (3, 2 + Fraction(1, 2**21845), 3 * 21847)]:
        assert d * max(s.numerator, s.denominator).bit_length() == bits
        assert vol_slab(d, s) == Fraction(1, s.denominator**d)


def test_clamped_long_slice_stays_free(monkeypatch):
    # s <= 0 and s >= d need no sum, so no cap: neither a power nor b^d is formed.
    monkeypatch.setattr(slab, "_slab_numerator", lambda *a: pytest.fail("numerator computed"))
    monkeypatch.setattr(slab, "factorial", lambda *a: pytest.fail("factorial computed"))
    tiny = Fraction(1, 10**4000)
    assert vol_slab(512, 600 + tiny) == vol_slab(512, 512 + tiny) == vol_slab(1, 1 + tiny) == 1
    assert vol_slab(512, -tiny) == vol_slab(512, 0) == 0


def test_slab_numerator_terms_stop_at_d():
    # From s = d on the sum is d! b^d, the d-th difference of x^d, and its
    # terms stop at n = d; at s <= 0 it is 0.
    for d in range(1, 9):
        for b in (1, 3, 10):
            for a in range(d * b, d * b + 3 * b):
                assert _slab_numerator(d, a, b) == factorial(d) * b**d, (d, a, b)
            assert _slab_numerator(d, -b, b) == _slab_numerator(d, 0, b) == 0


def test_folded_kernel_equals_numerator_difference():
    # _slab_numerator(d, j, D, r) folds N_j - r * N_{j-D} into one sum over
    # the shared powers (j - nD)^d; it must equal the two-numerator difference
    # on [-D, d*D], the optimizer's range, its edges and breakpoints among
    # the points, and past it, where the term n = d + 1 enters.
    rng = random.Random(23)
    for d in range(1, 13):
        for r in [*range(41), 511, 1023]:
            big = 256 * rng.randint(2, 100)
            js = [-big, -1, 0, 1, d * big - 1, d * big, (d + 1) * big, (d + 2) * big + 1]
            js += [m * big + k for m in range(1, d) for k in (-1, 0, 1)]
            js += [rng.randint(-big, d * big) for _ in range(8)]
            for j in js:
                want = _slab_numerator(d, j, big) - r * _slab_numerator(d, j - big, big)
                assert _slab_numerator(d, j, big, r) == want, (d, j, big, r)


def test_pointwise_kernel_computes_no_extra_binomial(monkeypatch):
    # r = 0 stops at n = d, as the unfolded sum did: one binomial per term.
    # Only r > 0 reaches the term n = d + 1, whose C(d, d+1) is 0.
    calls = []
    monkeypatch.setattr(slab, "comb", lambda *a: calls.append(a) or comb(*a))
    for d in (1, 4, 9):
        for a in (3, 17, d * 5, (d + 3) * 5):
            calls.clear()
            slab._slab_numerator(d, a, 5)
            assert calls == [(d, n) for n in range(min(a // 5, d) + 1)], (d, a)
        calls.clear()
        slab._slab_numerator(d, (d + 3) * 5, 5, 7)
        assert calls == [(d, n) for n in range(d + 2)]


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


def test_grid_numerators_equal_pointwise_sums():
    # The grid kernel gives the inclusion-exclusion numerator at every k/b.
    for d in range(1, 13):
        for b in (1, 2, 3, 7, 40, 100, 101):
            grid = _grid_numerators(d, b)
            assert grid == [_slab_numerator(d, k, b) for k in range(d * b + 1)], (d, b)
            assert all(type(n) is int for n in grid)


def difference_grid(d: int, b: int) -> list[int]:
    """Second path for ``_grid_numerators``: d b-step backward differences of k^d.

    With the shift (S^b N)_k = N_{k-b} (zero for k < b), the grid numerators
    are N = (1 - S^b)^d k_+^d for k = 0, ..., d*b (the cardinal B-spline
    identity, Schoenberg 1946).  It expands to the same inclusion-exclusion
    sum, in d passes of integer subtractions over the whole grid, and uses
    neither binomials nor the slab symmetry.
    """
    n = [k**d for k in range(d * b + 1)]
    for _ in range(d):
        n[b:] = [x - y for x, y in zip(n[b:], n)]
    return n


def test_grid_numerators_equal_difference_oracle():
    # Odd d*b checks where the computed lower half and the mirrored upper half meet.
    for d in range(1, 13):
        for b in (1, 2, 3, 7, 40, 100, 101):
            assert _grid_numerators(d, b) == difference_grid(d, b), (d, b)


def test_grid_numerator_symmetry():
    # v_{d-s} = 1 - v_s, over the one denominator: N_k + N_{d*b-k} = d! b^d.
    for d in range(1, 13):
        for b in (1, 2, 3, 7, 40, 101):
            full = factorial(d) * b**d
            for k in range(d * b + 1):
                assert _slab_numerator(d, k, b) + _slab_numerator(d, d * b - k, b) == full, (d, b, k)


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


def test_recurrence_oracle_agrees():
    for d in range(1, 10):
        for b in (1, 2, 3, 7, 10, 16):
            for k in range(-b, (d + 2) * b + 1):
                s = Fraction(k, b)
                assert vol_slab(d, s) == recurrence_vol_slab(d, s), (d, s)


def test_pieces_agree_at_breakpoints():
    # Continuity at an integer k: the polynomial of the piece [k-1, k),
    # the inclusion-exclusion sum up to n = k - 1, reaches v_k at s = k.
    for d in (2, 3, 5, 6, 8):
        for k in range(1, d + 1):
            left = sum(Fraction((-1) ** n * (k - n) ** d, factorial(n) * factorial(d - n)) for n in range(k))
            assert left == vol_slab(d, k)


def test_first_piece_is_power_over_factorial():
    for d in (1, 2, 6):
        for k in range(17):
            s = Fraction(k, 16)
            assert vol_slab(d, s) == s**d / factorial(d)


def test_last_piece_collapses_to_one():
    for d in (1, 2, 3, 7):
        for k in range(16):
            assert vol_slab(d, d + Fraction(k, 16)) == 1


def test_dim6_pieces():
    for k in range(48):
        s = Fraction(k, 16)
        expected = s**6 / 720
        if s >= 1:
            expected -= (s - 1) ** 6 / 120
        if s >= 2:
            expected += (s - 2) ** 6 / 48
        assert vol_slab(6, s) == expected, s


def test_dim1_piece_is_identity():
    for k in range(16):
        s = Fraction(k, 16)
        assert vol_slab(1, s) == s


def test_piece_degrees_and_leading_coefficients():
    # Partial alternating binomial sums never cancel: on [k, k+1] the volume
    # is a polynomial of exact degree d with leading coefficient
    # (-1)^k C(d-1, k) / d!, so its d-th difference with step h is
    # d! h^d times that coefficient, i.e. h^d (-1)^k C(d-1, k).
    for d in (2, 3, 6, 8):
        h = Fraction(1, d)
        for k in range(d):
            difference = sum((-1) ** (d - j) * comb(d, j) * vol_slab(d, k + j * h) for j in range(d + 1))
            assert difference == h**d * (-1) ** k * comb(d - 1, k)


@given(
    d=st.integers(min_value=1, max_value=7),
    numerator=st.integers(min_value=-8, max_value=64),
    denominator=st.integers(min_value=1, max_value=48),
)
def test_random_rational_properties(d, numerator, denominator):
    s = Fraction(numerator, denominator)
    value = vol_slab(d, s)
    assert 0 <= value <= 1
    assert recurrence_vol_slab(d, s) == value
    if 0 <= s <= d:
        assert value + vol_slab(d, d - s) == 1

