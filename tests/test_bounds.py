import random
import re
import time
from fractions import Fraction
from math import ceil, comb, factorial, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from hkcert import bounds, rationals, slab
from hkcert.bounds import (
    IntervalCertRow,
    _is_odd_prime,
    certify_interval,
    fixed_dimension_bound,
    optimize_slice,
    quadric_ehk,
    radical_recursion_bound,
    volume_lower_bound,
)
from hkcert.rationals import format_rational
from hkcert.series import conjecture_threshold
from hkcert.slab import vol_slab
from test_slab import termwise_vol_slab

PRINT_BUDGET = "a number of more than 4300 digits is past the print budget"
# An integer of 1 to 4300 digits, each length as likely: what a CLI integer flag reads.
CLI_INTEGER = st.integers(1, 4300).flatmap(lambda digits: st.integers(10 ** (digits - 1), 10**digits - 1))

ODD_PRIMES_TO_97 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                    59, 61, 67, 71, 73, 79, 83, 89, 97]


def ungrouped_bound(d, e, s, valuations):
    """Oracle: ``e * (v_s - sum_i v_{s-t_i})`` with one volume per valuation, repeats included."""
    s = Fraction(s)
    total = termwise_vol_slab(d, s)
    for t in valuations:
        total -= termwise_vol_slab(d, s - t)
    return Fraction(e) * total


def grid_then_halving(d, e, r, grid_resolution):
    """Oracle: ``optimize_slice`` as first written, one full bound per point.

    Every grid point and refinement candidate gets its own ungrouped
    evaluation; the strict ``>`` keeps the first maximum found.
    """
    best_s = Fraction(0)
    best_bound = ungrouped_bound(d, e, best_s, [1] * r)
    for k in range(1, d * grid_resolution + 1):
        s = Fraction(k, grid_resolution)
        bound = ungrouped_bound(d, e, s, [1] * r)
        if bound > best_bound:
            best_s, best_bound = s, bound
    step = Fraction(1, grid_resolution)
    for _ in range(8):
        step /= 2
        for candidate in (best_s - step, best_s + step):
            if 0 <= candidate <= d:
                bound = ungrouped_bound(d, e, candidate, [1] * r)
                if bound > best_bound:
                    best_s, best_bound = candidate, bound
    return best_s, best_bound


def fine_lattice_scores(d, r, b):
    """Oracle: ``N_j - r * N_{j-b}`` for j = 0, ..., d*b, where v_{j/b} = N_j / (d! b^d) and N_j = 0 for j < 0.

    Each N_j is the inclusion-exclusion sum over one table of powers k^d,
    with no clamp and no symmetry.
    """
    powers = [k**d for k in range(d * b + 1)]
    n = [sum((-1) ** m * comb(d, m) * powers[j - m * b] for m in range(min(j // b, d) + 1)) for j in range(d * b + 1)]
    return [n[j] - r * (n[j - b] if j >= b else 0) for j in range(d * b + 1)]


def fraction_certify_interval(d, e_low, e_high, s):
    """Oracle: ``certify_interval`` as it was before it compared integer numerators.

    The same input checks in the same order (each end's type, then e_low's
    floor, before the two ends are compared), then two ``vol_slab``
    volumes, G at both ends, the apex and the comparisons as ``Fraction``
    arithmetic.
    """
    for name, value in (("e_low", e_low), ("e_high", e_high)):
        if (value := Fraction(value)).denominator != 1:
            raise ValueError(f"{name} must be an integer, got {format_rational(value)}")
        if name == "e_low" and value < 1:
            raise ValueError("e_low must be >= 1")
    if e_low > e_high:
        raise ValueError(f"e_high must be >= {e_low}")
    s = Fraction(s)
    if s < 0:
        raise ValueError("s must be >= 0")
    v_s, v_prev = vol_slab(d, s), vol_slab(d, s - 1)
    g_low, g_high = (e * (v_s - (e - 2) * v_prev) for e in (e_low, e_high))
    apex = (v_s + 2 * v_prev) / (2 * v_prev) if v_prev else None
    if apex is None:
        branch = "degenerate-linear-increasing"
    elif e_low <= apex <= e_high:
        branch = "apex-interior"
    elif apex > e_high:
        branch = "increasing"
    else:
        branch = "decreasing"
    return IntervalCertRow(apex, g_low, g_high, branch)


def fraction_interval_notes(row, e_low, e_high):
    """Reference prose of the ``notes:`` line for an oracle row, as ``certify_interval`` once wrote it."""
    if row.branch == "degenerate-linear-increasing":
        return f"v_(s-1) = 0: G(e) = e*v_s is linear increasing; G({e_low}) certifies"
    if row.branch == "apex-interior":
        return (
            f"apex {format_rational(row.apex)} inside [{e_low}, {e_high}]; "
            f"G({e_low}) = {format_rational(row.g_low)}, G({e_high}) = {format_rational(row.g_high)}"
        )
    if row.branch == "increasing":
        return f"apex {format_rational(row.apex)} right of [{e_low}, {e_high}]; G increasing; G({e_low}) certifies"
    return f"apex {format_rational(row.apex)} left of [{e_low}, {e_high}]; G decreasing; G({e_high}) certifies"


def quadratic_g(d, e, s):
    """Oracle: the parabola G(e) = e (v_s - (e-2) v_{s-1}) at any rational e."""
    return e * (termwise_vol_slab(d, s) - (e - 2) * termwise_vol_slab(d, s - 1))


def apex(d, s):
    """The apex of e -> G(e) at slice s, as ``certify_interval`` reports it."""
    return certify_interval(d, 1, 1, s).apex


def radical_step_bound(e, k, n, b, ehk_next):
    """One-step lower bound across a degree-n radical extension R -> S.

    Given e_HK(S) = ehk_next, with k the embedding codimension and b the
    fraction-field degree of the extension:

        k = e - 2:  e(n-1)/(en-2)       + n(e-2)/(b(en-2))       * ehk_next
        k < e - 2:  e(n-1)/((n-1)e+k+1) + n(k+1)/(b((n-1)e+k+1)) * ehk_next

    With b = n both maps fix the value 1 and contract toward it.
    """
    e, ehk_next = Fraction(e), Fraction(ehk_next)
    if n < 2:
        raise ValueError("root degree n must be >= 2")
    if not 1 <= b <= n:
        raise ValueError("field-extension degree b must satisfy 1 <= b <= n")
    if not 3 <= k <= e - 2:
        raise ValueError("embedding codimension k must satisfy 3 <= k <= e - 2")
    if ehk_next < 1:
        raise ValueError("ehk_next must be >= 1")
    if k == e - 2:
        den = e * n - 2
        return e * (n - 1) / den + Fraction(n) * (e - 2) / (b * den) * ehk_next
    den = (n - 1) * e + k + 1
    return e * (n - 1) / den + Fraction(n * (k + 1)) / (b * den) * ehk_next


def radical_step_iterates(d, e, k, n, steps):
    """Oracle: the base value and ``steps`` applications of ``radical_step_bound`` with b = n.

    Returns the list of all ``steps + 1`` iterates.  The base value is
    e/2 when k = e - 2 and 1 + 1/d otherwise.
    """
    e = Fraction(e)
    values = [e / 2 if k == e - 2 else 1 + Fraction(1, d)]
    for _ in range(steps):
        values.append(radical_step_bound(e, k, n, n, values[-1]))
    return values


class TestVolumeLowerBound:
    def test_multiplicity_five_dimension_seven(self):
        bound = volume_lower_bound(7, 5, Fraction(83, 25), r=3)
        assert bound == Fraction(65199794269, 58593750000)
        assert bound > Fraction(1112, 1000)

    def test_dim5_row(self):
        assert volume_lower_bound(5, 35, Fraction(7, 5), r=134) == Fraction(86513, 75000)

    def test_full_cube_with_no_generators(self):
        for d in (1, 3, 6):
            assert volume_lower_bound(d, 1, d, r=0) == 1

    def test_valuation_mode(self):
        bound = volume_lower_bound(3, 2, 1, valuations=[Fraction(1, 2), Fraction(1, 2)])
        assert bound == Fraction(1, 4)

    def test_uniform_equals_unit_valuations(self):
        rng = random.Random(11705)
        for _ in range(20):
            d = rng.randint(1, 7)
            e = rng.randint(1, 10)
            s = Fraction(rng.randint(0, 10 * d), 10)
            uniform = volume_lower_bound(d, e, s, r=3)
            explicit = volume_lower_bound(d, e, s, valuations=[1, 1, 1])
            assert uniform == explicit

    def test_grouped_valuations_equal_ungrouped_sum(self):
        rng = random.Random(3301)
        pool = [Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(7, 5), Fraction(5, 2), Fraction(3)]
        for _ in range(60):
            d = rng.randint(1, 8)
            e = Fraction(rng.randint(3, 90), rng.randint(1, 3))
            s = Fraction(rng.randint(0, 20 * d), 20)
            valuations = [rng.choice(pool) for _ in range(rng.randint(0, 12))]
            expected = ungrouped_bound(d, e, s, valuations)
            assert volume_lower_bound(d, e, s, valuations=valuations) == expected
            if all(t == 1 for t in valuations):
                assert volume_lower_bound(d, e, s, r=len(valuations)) == expected

    def test_uniform_equals_repeated_unit_valuations(self):
        for d, e, s, r in [(5, 35, Fraction(7, 5), 134), (6, 12, Fraction(23, 10), 10), (3, Fraction(7, 2), 2, 1)]:
            assert volume_lower_bound(d, e, s, r=r) == ungrouped_bound(d, e, s, [1] * r)

    def test_uniform_form_is_one_numerator_pair(self, monkeypatch):
        # The r form takes N_s and N_{s-1} over one denominator, as
        # certify_interval does: one _slab_ratios call for the two points
        # s = a/b and s - 1 = (a-b)/b, and no valuation grouping.  r = 0
        # evaluates v_s alone, so a long s - 1 cannot fail the work budget.
        calls = []
        real_ratios = bounds._slab_ratios
        monkeypatch.setattr(bounds, "_slab_ratios", lambda *a: calls.append(a) or real_ratios(*a))
        monkeypatch.setattr(bounds, "Counter", lambda *a: pytest.fail("valuations grouped"))
        for s, r in ((Fraction(7, 5), 134), (Fraction(1, 3), 2), (Fraction(11, 2), 3), (Fraction(8), 1)):
            calls.clear()
            assert volume_lower_bound(5, 35, s, r=r) == ungrouped_bound(5, 35, s, [1] * r)
            assert calls == [(5, (s.numerator, s.denominator), (s.numerator - s.denominator, s.denominator))]
        # v_s = 1 and v_{s-1} = v_{1 + 1/3^k} of size 2 * bit length of 3^k + 1:
        # 65618 bits at k = 20700, past half the budget, 131072 at k = 41348,
        # the last admitted, and 131074 at k = 41349.
        for k, bits in ((20700, 65618), (41348, 131072)):
            long_s = 2 + Fraction(1, 3**k)
            assert 2 * (3**k + 1).bit_length() == bits
            assert volume_lower_bound(2, 5, long_s, r=1) == ungrouped_bound(2, 5, long_s, [1])
        long_s = 2 + Fraction(1, 3**41349)
        calls.clear()
        assert volume_lower_bound(2, 5, long_s, r=0) == 5
        assert calls == [(2, (long_s.numerator, long_s.denominator))]
        with pytest.raises(ValueError, match="^summed slab sizes .* must be <= 131072, got 131074$"):
            volume_lower_bound(2, 5, long_s, r=1)

    def test_weakly_decreasing_in_generator_count(self):
        for d, e, s in [(5, 7, Fraction(21, 10)), (6, 10, Fraction(23, 10)), (3, 4, Fraction(3, 2))]:
            bounds = [volume_lower_bound(d, e, s, r=r) for r in range(6)]
            assert all(a >= b for a, b in zip(bounds, bounds[1:]))

    def test_query_validation(self):
        with pytest.raises(ValueError):
            volume_lower_bound(0, Fraction(2), Fraction(1), r=1)
        with pytest.raises(ValueError):
            volume_lower_bound(2, Fraction(1, 2), Fraction(1), r=1)
        with pytest.raises(ValueError):
            volume_lower_bound(2, Fraction(2), Fraction(-1), r=1)
        with pytest.raises(ValueError):
            volume_lower_bound(2, Fraction(2), Fraction(1), r=1, valuations=(Fraction(1),))
        with pytest.raises(ValueError):
            volume_lower_bound(2, Fraction(2), Fraction(1))
        with pytest.raises(ValueError):
            volume_lower_bound(2, Fraction(2), Fraction(1), r=-1)
        with pytest.raises(ValueError):
            volume_lower_bound(2, Fraction(2), Fraction(1), valuations=(Fraction(0),))

    def test_rejects_non_integer_generator_count(self):
        # Truncating r = 3/2 to 1 would return the r = 1 bound 115/48.
        with pytest.raises(ValueError, match="r must be an integer, got 3/2"):
            volume_lower_bound(3, 5, Fraction(3, 2), r=Fraction(3, 2))
        assert volume_lower_bound(3, 5, Fraction(3, 2), r=Fraction(1)) == Fraction(115, 48)

    def test_valuations_are_any_iterable(self):
        # An iterator reads as its tuple; anything not iterable is refused by name.
        valuations = [1, Fraction(1, 2), 1]
        expected = volume_lower_bound(5, 7, Fraction(21, 10), valuations=valuations)
        assert volume_lower_bound(5, 7, Fraction(21, 10), valuations=iter(valuations)) == expected
        with pytest.raises(ValueError, match="^valuations must be iterable, got int: 5$"):
            volume_lower_bound(3, 5, 1, valuations=5)

    def test_rejects_valuations_beyond_cap(self, monkeypatch):
        # Checked before any volume is computed; a repeated valuation counts once.
        assert bounds._MAX_VALUATIONS == 1000
        monkeypatch.setattr(bounds, "_slab_ratios", lambda *a: pytest.fail("volume computed"))
        valuations = [Fraction(1, k) for k in range(2, 1003)] * 2
        with pytest.raises(ValueError, match="^number of distinct valuations must be <= 1000, got 1001$"):
            volume_lower_bound(8, 5, 4, valuations=valuations)

    def test_admits_valuations_at_cap(self, monkeypatch):
        monkeypatch.setattr(bounds, "_slab_ratios", lambda d, *points: [(0, 1)] * len(points))
        valuations = [Fraction(1, k) for k in range(2, 1002)]
        assert volume_lower_bound(8, 5, 4, valuations=valuations) == 0

    def test_admits_summed_volume_sizes_at_cap(self, monkeypatch):
        # v_s and v_{s-1} of half the budget each fill it, as does v_s alone
        # at the full budget; a clamped volume (here v_0, from t = s) costs
        # nothing.
        assert slab._MAX_SLAB_BITS == 2**17
        half, full = 511 + Fraction(1, 3**75), 511 + Fraction(1, 2**247)
        assert 512 * half.numerator.bit_length() == slab._MAX_SLAB_BITS // 2
        assert 512 * full.numerator.bit_length() == slab._MAX_SLAB_BITS
        monkeypatch.setattr(slab, "_slab_numerator", lambda *a: 0)
        assert volume_lower_bound(512, 6, half, r=4) == 0
        assert volume_lower_bound(512, 6, half, valuations=[1, 1, half]) == 0
        assert volume_lower_bound(512, 6, full, r=0) == 0
        assert volume_lower_bound(512, 6, full, valuations=[full]) == 0

    def test_rejects_summed_volume_sizes_beyond_cap(self, monkeypatch):
        # One more evaluated volume, v_1 of size 512, is the first sum past
        # the cap at d = 512; uncapped, this call works about 0.6 s.
        s = 511 + Fraction(1, 3**75)
        monkeypatch.setattr(slab, "_slab_numerator", lambda *a: pytest.fail("numerator computed"))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="must be <= 131072, got 131584$"):
            volume_lower_bound(512, 6, s, valuations=[1, s - 1])
        assert time.perf_counter() - start < 1


class TestOptimizeSlice:
    def test_matches_hand_picked_slice(self):
        _, bound = optimize_slice(7, 5, 3, 100)
        assert bound >= volume_lower_bound(7, 5, Fraction(83, 25), r=3)
        assert bound > Fraction(1112, 1000)

    def test_dim5_small_multiplicity(self):
        _, bound = optimize_slice(5, 5, 4, 100)
        assert bound >= Fraction(1313, 1000)

    def test_trivial_maximum(self):
        assert optimize_slice(2, 1, 0, 10) == (Fraction(2), Fraction(1))

    def test_rejects_tiny_resolution(self):
        with pytest.raises(ValueError):
            optimize_slice(2, 1, 0, 1)

    def test_rejects_invalid_query(self):
        with pytest.raises(ValueError):
            optimize_slice(5, Fraction(1, 2), 3, 10)
        with pytest.raises(ValueError):
            optimize_slice(5, 5, -1, 10)
        with pytest.raises(ValueError):
            optimize_slice(0, 5, 3, 10)
        with pytest.raises(ValueError, match="r must be an integer, got 3/2"):
            optimize_slice(3, 5, Fraction(3, 2), 10)

    def test_integer_path_after_input_checks(self, monkeypatch):
        # The inputs are checked as volume_lower_bound checks them, but with
        # no volume_lower_bound call and no volume (no _slab_ratios); every
        # candidate is compared as an integer slab numerator.  The
        # 241 grid numerators come from one _grid_numerators call, so only
        # the 16 halving candidates are single-point calls: one folded
        # _slab_numerator(d, j, D, r) each, N_j - r * N_{j-D} in one sum.
        checks, ratios, grids, points = [], [], [], []
        real_ratios = bounds._slab_ratios
        monkeypatch.setattr(bounds, "_slab_ratios", lambda *a: ratios.append(a) or real_ratios(*a))
        real_bound = bounds.volume_lower_bound
        monkeypatch.setattr(bounds, "volume_lower_bound", lambda *a, **k: checks.append(a) or real_bound(*a, **k))
        real_grid = bounds._grid_numerators
        monkeypatch.setattr(bounds, "_grid_numerators", lambda *a: grids.append(a) or real_grid(*a))
        real_numerator = bounds._slab_numerator
        monkeypatch.setattr(bounds, "_slab_numerator", lambda *a: points.append(a) or real_numerator(*a))
        assert optimize_slice(6, 20, 5, 40) == grid_then_halving(6, 20, 5, 40)
        assert checks == []
        assert ratios == []
        assert grids == [(6, 40)]
        assert 0 < len(points) <= 16
        assert all(a[2:] == (256 * 40, 5) for a in points)

    def test_keeps_first_maximum_on_a_tie(self):
        # For d = 2 on [1, 2] the bound is a parabola with apex (2+r)/(1+r);
        # r = 511 puts it at 513/512, midway between the fine points
        # 769/768 and 770/768 of res = 3, so the two tie.  The halvings
        # reach 770/768 first, and a later equal score must not replace it.
        # (A tie between grid points cannot change s: the bound is unimodal,
        # so tied grid maxima are neighbours, and the first halving from
        # either one moves to the point midway between them.)
        left, right = (volume_lower_bound(2, 1, Fraction(j, 768), r=511) for j in (769, 770))
        assert left == right
        assert optimize_slice(2, 1, 511, 3) == grid_then_halving(2, 1, 511, 3) == (Fraction(770, 768), right)

    def test_returns_the_fine_lattice_maximiser(self):
        # The bound rises and then falls in s (the Irwin-Hall density is
        # log-concave), so the grid's first maximum and the 8 halvings return
        # the maximiser over every point j/D, D = 256 * res, 0 <= j <= d*D;
        # of two tied neighbours, the even j.  The first 8 cases are every
        # tie of d 1-6, res 2-12, r in {0, ..., 39, 127, 255, 511, 1023}
        # (4 return the second point); on the next 2, step 2 -> 3 in the
        # halvings misses the maximum.
        cases = [(2, 2, 1023), (2, 3, 511), (2, 5, 511), (2, 6, 1023), (2, 7, 511), (2, 9, 511), (2, 10, 1023),
                 (2, 11, 511), (3, 8, 511), (3, 9, 127)]
        rng = random.Random(256)
        cases += [(rng.randint(1, 6), rng.randint(2, 12), rng.choice([*range(40), 127, 255, 511, 1023]))
                  for _ in range(60)]
        ties = 0
        for d, res, r in cases:
            fine = 256 * res
            scores = fine_lattice_scores(d, r, fine)
            best = max(scores)
            argmax = [j for j, score in enumerate(scores) if score == best]
            assert len(argmax) == 1 or (len(argmax) == 2 and argmax[1] == argmax[0] + 1), (d, res, r)
            ties += len(argmax) == 2
            want = argmax[0] if len(argmax) == 1 else next(j for j in argmax if j % 2 == 0)
            e = Fraction(d + r + 1, 3)
            s, bound = optimize_slice(d, e, r, res)
            assert (s, bound) == (Fraction(want, fine), e * Fraction(best, factorial(d) * fine**d))
            # The grid scan starts at s = 1; with r = 0 the bound e v_s rises
            # to s = d; with r >= 1 it peaks by the middle of the slab.
            assert s >= 1 and (s == d if r == 0 else s <= Fraction(d + 1, 2)), (d, res, r, s)
        assert ties == 8

    def test_score_rises_then_falls_on_every_lattice(self):
        # The fact the halvings rest on: over a whole lattice {j/b : 0 <= j <= d*b}
        # the score N_j - r N_{j-b} rises, ties at most once, then falls, as its
        # forward difference integrates f(s) - r f(s-1) over [j, j+1]/b, which
        # changes sign at most once, from + to -.  31 of these lattices tie.
        # Up to j = b, where N_{j-b} = 0, the score is N_j and rises: the
        # grid scan starts there.
        shape, ties = re.compile(r"\+*0?-*"), 0
        for d in range(1, 13):
            for b in range(2, 9):
                for r in [*range(41), 127, 511, 1023]:
                    scores = [slab._slab_numerator(d, j, b, r) for j in range(d * b + 1)]
                    signs = "".join("+" if y > x else "-" if y < x else "0" for x, y in zip(scores, scores[1:]))
                    assert shape.fullmatch(signs), (d, b, r, signs)
                    assert signs[:b] == "+" * b, (d, b, r, signs)
                    ties += "0" in signs
        assert ties == 31

    def test_rejects_grid_beyond_cost_cap(self, monkeypatch):
        # The cap is checked before the grid exists: a kernel call would fail the test.
        monkeypatch.setattr(bounds, "_grid_numerators", lambda *a: pytest.fail("grid built"))
        assert bounds._MAX_GRID_STEPS == 10**6
        for d, res in ((2, 500001), (512, 1954)):
            with pytest.raises(ValueError, match=f"dimension \\* grid_resolution must be <= 1000000, got {d * res}"):
                optimize_slice(d, 5, 3, res)

    def test_rejects_work_beyond_cost_cap(self, monkeypatch):
        # The work grows like d^2 * (d * res); these pass the points cap.
        monkeypatch.setattr(bounds, "_grid_numerators", lambda *a: pytest.fail("grid built"))
        assert bounds._MAX_GRID_WORK == 10**9 == 100 * 100 * (100 * 1000)
        for d, res in ((101, 1000), (100, 1001), (200, 500), (512, 8)):
            assert d * res <= bounds._MAX_GRID_STEPS
            message = f"dimension\\*\\*3 \\* grid_resolution must be <= 1000000000, got {d**3 * res}"
            with pytest.raises(ValueError, match=message):
                optimize_slice(d, 5, 3, res)

    def test_admits_grid_at_both_cost_caps(self, monkeypatch):
        # d * res = 10**6 exactly (work 10**6), then d**3 * res = 10**9 exactly.
        # From the grid maximum at 0 the halvings try j = 128, 64, ..., 1; the
        # stub must be what they call, one folded kernel call each, or they
        # would evaluate real sums at d = 100.
        points = []
        monkeypatch.setattr(bounds, "_grid_numerators", lambda *a: [0])
        monkeypatch.setattr(bounds, "_slab_numerator", lambda *a: points.append(a) or 0)
        for d, res in ((1, 10**6), (100, 1000)):
            points.clear()
            assert optimize_slice(d, 5, 3, res) == (0, 0)
            assert points == [(d, step, 256 * res, 3) for step in (128, 64, 32, 16, 8, 4, 2, 1)]

    def test_matches_grid_then_halving_oracle(self):
        rng = random.Random(8128)
        cases = [(2, 1, 0, 2), (2, Fraction(7, 3), 16, 2), (8, Fraction(37, 2), 16, 60), (8, 5, 0, 60),
                 (4, 6, 4, 41), (5, Fraction(35, 3), 7, 2),
                 # d = 1: v is piecewise linear, so the maximum sits on a breakpoint.
                 (1, 1, 0, 2), (1, 5, 1, 2), (1, Fraction(7, 2), 3, 17), (1, 40, 16, 100), (1, Fraction(9, 7), 0, 33),
                 # the corners of the bench search cells
                 (8, 38, 16, 100), (4, 6, 1, 40)]
        for _ in range(16):
            d, r, res = rng.randint(2, 8), rng.randint(0, 16), rng.randint(2, 60)
            e = Fraction(rng.randint(max(3, 2 * r), 90), rng.choice([1, 2, 3, 7]))
            cases.append((d, max(e, 1), r, res))
        for d, e, r, res in cases:
            assert optimize_slice(d, e, r, res) == grid_then_halving(d, e, r, res), (d, e, r, res)


# Two broken rules at once: the first message of each bound entry wins.
# volume_lower_bound reads d, e and s, then which of r / valuations is given,
# then that one; optimize_slice reads d as an integer and grid_resolution,
# checks both grid caps, and only then the dimension range, e and r.
BOUND_CHECK_ORDER = [
    pytest.param(lambda: volume_lower_bound(513, 0, 1, r=1), "d must be <= 512, got 513", id="vlb-d-before-e"),
    pytest.param(lambda: volume_lower_bound(0, 5, -1, r=1), "d must be >= 1", id="vlb-d-before-s"),
    pytest.param(lambda: volume_lower_bound(2.0, 0, 1, r=1), "d must be int or Fraction, got float: 2.0",
                 id="vlb-d-type-before-e"),
    pytest.param(lambda: volume_lower_bound(3, 0, -1, r=1), "e must be >= 1", id="vlb-e-before-s"),
    pytest.param(lambda: volume_lower_bound(3, Fraction(1, 2), 1), "e must be >= 1", id="vlb-e-before-r-or-t"),
    pytest.param(lambda: volume_lower_bound(3, 5, -1, r=-1), "s must be >= 0", id="vlb-s-before-r"),
    pytest.param(lambda: volume_lower_bound(3, 5, -1, r=Fraction(3, 2)), "s must be >= 0", id="vlb-s-before-r-type"),
    pytest.param(lambda: volume_lower_bound(3, 5, 0.5, r=0.5), "s must be int or Fraction, got float: 0.5",
                 id="vlb-s-type-before-r-type"),
    pytest.param(lambda: volume_lower_bound(3, 5, -1, r=1, valuations=[1]), "s must be >= 0",
                 id="vlb-s-before-r-or-t"),
    pytest.param(lambda: volume_lower_bound(3, 5, 1, r=-1, valuations=[1]),
                 "exactly one of r / valuations is required", id="vlb-r-or-t-before-r"),
    pytest.param(lambda: volume_lower_bound(3, 5, -1, valuations=[0]), "s must be >= 0", id="vlb-s-before-t"),
    pytest.param(lambda: volume_lower_bound(513, 5, 1, valuations=5), "d must be <= 512, got 513",
                 id="vlb-d-before-t-iterable"),
    pytest.param(lambda: volume_lower_bound(3, 0, 1, valuations=5), "e must be >= 1", id="vlb-e-before-t-iterable"),
    pytest.param(lambda: volume_lower_bound(3, 5, 1, valuations=[0, 0.5]),
                 "valuations must be int or Fraction, got float: 0.5", id="vlb-every-t-read-before-signs"),
    pytest.param(lambda: volume_lower_bound(3, 5, 1, valuations=[0, *(Fraction(1, k) for k in range(2, 1100))]),
                 "valuations must be positive", id="vlb-signs-before-count-cap"),
    pytest.param(lambda: optimize_slice(513, 5, 3, 2000), "d must be <= 512, got 513", id="opt-d-range-before-steps-cap"),
    pytest.param(lambda: optimize_slice(513, 5, 3, 10), "d must be <= 512, got 513", id="opt-d-range-before-work-cap"),
    pytest.param(lambda: optimize_slice(513, 0, None, 2), "d must be <= 512, got 513", id="opt-d-range-before-e"),
    pytest.param(lambda: optimize_slice(0, 5, 3, 1), "d must be >= 1", id="opt-d-floor-before-resolution"),
    pytest.param(lambda: optimize_slice(2.0, 5, 3, 1), "d must be int or Fraction, got float: 2.0",
                 id="opt-d-type-before-resolution"),
    pytest.param(lambda: optimize_slice(0, 0, 3, 10), "d must be >= 1", id="opt-d-floor-before-e"),
    pytest.param(lambda: optimize_slice(-1, 0, 3, 10), "d must be >= 1", id="opt-negative-d-before-e"),
    pytest.param(lambda: optimize_slice(5, 0, -1, 10), "e must be >= 1", id="opt-e-before-r"),
    pytest.param(lambda: optimize_slice(5, 5, -1, 1), "grid_resolution must be >= 2", id="opt-resolution-before-r"),
    pytest.param(lambda: optimize_slice(4, Fraction(1, 2), None, 10), "e must be >= 1", id="opt-e-before-missing-r"),
    # optimize_slice has no valuations: a missing r is read as r, by r's own reader.
    pytest.param(lambda: optimize_slice(4, 5, None, 10), "r must be int or Fraction, got NoneType: None",
                 id="opt-missing-r"),
]


@pytest.mark.parametrize("call, message", BOUND_CHECK_ORDER)
def test_bound_entries_first_broken_rule_wins(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# Miller-Rabin to exactly these bases, the first 12 primes, is deterministic
# below psi_12 (Sorenson and Webster 2017).
FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# psi_k, the least strong pseudoprime to the first k prime bases, for each k
# at which it changes (OEIS A014233; Jaeschke 1993), with that k.
LEAST_STRONG_PSEUDOPRIMES = [
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 8),
    (3825123056546413051, 11),
]


def strong_probable_prime(n, base):
    """Whether odd n > base passes the strong (Miller-Rabin) test to one base."""
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    x = pow(base, odd, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, twos))


class TestQuadric:
    def test_closed_forms(self):
        assert quadric_ehk(3, 5) == Fraction(33, 29)
        assert quadric_ehk(3, 6) == Fraction(193, 177)

    def test_exceeds_threshold_for_all_odd_primes(self):
        for p in ODD_PRIMES_TO_97:
            assert quadric_ehk(p, 5) > conjecture_threshold(5)
            assert quadric_ehk(p, 6) > conjecture_threshold(6)

    def test_limit_rate(self):
        for p in ODD_PRIMES_TO_97:
            if p >= 11:
                assert abs(quadric_ehk(p, 5) - Fraction(17, 15)) < Fraction(1, p * p)

    def test_rejects_bad_inputs(self):
        for bad_p in (2, 4, 9, 1):
            with pytest.raises(ValueError):
                quadric_ehk(bad_p, 5)
        with pytest.raises(ValueError):
            quadric_ehk(3, 4)

    def test_primality_matches_trial_division(self):
        def trial_division(p):
            return p >= 3 and p % 2 == 1 and all(p % f for f in range(3, isqrt(p) + 1, 2))

        for p in range(-3, 20000):
            assert _is_odd_prime(p) == trial_division(p), p

    def test_rejects_strong_pseudoprimes(self):
        # psi_k passes the first k prime bases and fails the next, which also
        # proves it composite: a prime passes every base.  3215031751 =
        # 151*751*28351 fools bases 2..7; 3825123056546413051 =
        # 149491*747451*34233211 fools bases 2..31.
        for composite, fooled in LEAST_STRONG_PSEUDOPRIMES:
            passes = [strong_probable_prime(composite, base) for base in FIRST_PRIMES]
            assert passes[: fooled + 1] == [True] * fooled + [False], composite
            assert not _is_odd_prime(composite)
            with pytest.raises(ValueError, match="odd prime"):
                quadric_ehk(composite, 5)

    def test_primality_cap_follows_the_even_answer(self):
        # psi_12 is the first odd p refused and psi_12 - 2 the last one tested;
        # an even p is answered before the cap, however large.
        limit = bounds._MILLER_RABIN_LIMIT
        assert limit == 318665857834031151167461
        with pytest.raises(ValueError, match=f"^p must be <= {limit - 1}, got {limit}$"):
            _is_odd_prime(limit)
        assert _is_odd_prime(limit - 2) == all(strong_probable_prime(limit - 2, b) for b in FIRST_PRIMES)
        assert not _is_odd_prime(limit + 1)
        assert not _is_odd_prime(2 * limit)

    def test_bases_are_the_first_primes(self):
        # The cited bound psi_12 holds for these bases and no others.
        assert bounds._MILLER_RABIN_BASES == FIRST_PRIMES


class TestQuadratic:
    def test_large_multiplicity_row(self):
        value = volume_lower_bound(6, 296, Fraction(13, 10), r=294)
        assert value == Fraction(170500033, 90000000)
        assert value > Fraction(189, 100)

    def test_multiplicity_two_is_twice_volume(self):
        for s in (Fraction(7, 4), Fraction(5, 2), Fraction(1, 3)):
            assert certify_interval(6, 2, 2, s).certified_bound == 2 * vol_slab(6, s)

    def test_agrees_with_volume_bound_at_r_e_minus_2(self):
        for d, e, s in [(6, 5, Fraction(13, 5)), (5, 7, Fraction(21, 10)), (4, 2, Fraction(3, 2))]:
            assert certify_interval(d, e, e, s).certified_bound == volume_lower_bound(d, e, s, r=e - 2)
            assert quadratic_g(d, e, s) == volume_lower_bound(d, e, s, r=e - 2)

    def test_apex_values(self):
        assert apex(6, Fraction(13, 10)) == Fraction(4823893, 1458)
        assert apex(6, Fraction(19, 10)) == Fraction(44920117, 1062882)
        assert apex(6, 1) is None

    def test_apex_is_maximum(self):
        for s in (Fraction(13, 10), Fraction(19, 10), Fraction(23, 10)):
            top = apex(6, s)
            assert top is not None
            at_apex = quadratic_g(6, top, s)
            for eps in (Fraction(1, 10), Fraction(1)):
                assert quadratic_g(6, top - eps, s) <= at_apex
                assert quadratic_g(6, top + eps, s) <= at_apex

    def test_apex_closed_form_on_1_2(self):
        # On [1, 2): apex = (s^6 - 4(s-1)^6) / (2 (s-1)^6).  Equivalent to
        # the identity v_s + 2 v_{s-1} = (s^6 - 4(s-1)^6)/720.
        for k in range(1, 8):
            s = 1 + Fraction(k, 8)
            assert vol_slab(6, s) + 2 * vol_slab(6, s - 1) == (s**6 - 4 * (s - 1) ** 6) / 720
            expected = (s**6 - 4 * (s - 1) ** 6) / (2 * (s - 1) ** 6)
            assert apex(6, s) == expected

    def test_apex_closed_form_on_2_3(self):
        # On [2, 3): numerator s^6 - 4(s-1)^6 + 3(s-2)^6 over denominator
        # 2(s-1)^6 - 12(s-2)^6 (the factor 12 = 2 * 720/120 comes from the
        # shifted [1, 2) piece of v_{s-1}).
        for k in range(1, 8):
            s = 2 + Fraction(k, 8)
            num = s**6 - 4 * (s - 1) ** 6 + 3 * (s - 2) ** 6
            den = 2 * (s - 1) ** 6 - 12 * (s - 2) ** 6
            assert apex(6, s) == num / den


class TestCertifyInterval:
    def test_increasing_branch(self):
        row = certify_interval(6, 296, 786, Fraction(13, 10))
        assert row.branch == "increasing"
        assert row.apex == Fraction(4823893, 1458)
        assert row.certified_bound == volume_lower_bound(6, 296, Fraction(13, 10), r=294)
        assert row.certified_bound >= Fraction(189, 100)

    def test_interior_branch(self):
        row = certify_interval(6, 5, 9, Fraction(13, 5))
        assert row.branch == "apex-interior"
        assert row.certified_bound == Fraction(249157, 225000)
        assert row.certified_bound >= Fraction(1107, 1000)
        # An apex on an endpoint is interior: d = 2, s = 4/3 puts it exactly at 8.
        for e_low, e_high in ((8, 11), (5, 8)):
            row = certify_interval(2, e_low, e_high, Fraction(4, 3))
            assert (row.apex, row.branch) == (8, "apex-interior"), (e_low, e_high)

    def test_decreasing_branch(self):
        row = certify_interval(6, 8, 12, Fraction(13, 5))
        assert row.branch == "decreasing"
        assert row.certified_bound == volume_lower_bound(6, 12, Fraction(13, 5), r=10) == Fraction(11453, 15625)
        assert row.certified_bound >= Fraction(7, 10)

    def test_degenerate_branch(self):
        row = certify_interval(6, 2, 5, 1)
        assert row.branch == "degenerate-linear-increasing"
        assert row.apex is None
        assert row.certified_bound == Fraction(1, 360)

    def test_single_point_interval(self):
        row = certify_interval(6, 2, 2, Fraction(7, 4))
        assert row.certified_bound == 2 * vol_slab(6, Fraction(7, 4))

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            certify_interval(6, 9, 5, Fraction(13, 5))

    def test_rejects_non_positive_multiplicity(self):
        for e_low in (-5, 0):
            with pytest.raises(ValueError):
                certify_interval(6, e_low, 9, Fraction(13, 5))
        assert certify_interval(6, 1, 9, Fraction(13, 5)).certified_bound >= 0

    def test_rejects_non_integer_endpoints(self):
        # A range of multiplicities has integer ends; [5/2, 9] would report G(5/2).
        with pytest.raises(ValueError, match="e_low must be an integer, got 5/2"):
            certify_interval(3, Fraction(5, 2), 9, 2)
        with pytest.raises(ValueError, match="e_high must be an integer, got 17/2"):
            certify_interval(3, 5, Fraction(17, 2), 2)
        assert certify_interval(3, Fraction(5), Fraction(9), 2) == certify_interval(3, 5, 9, 2)

    def test_rejects_negative_slice(self):
        # The same check as volume_lower_bound.
        for s in (-1, Fraction(-1, 10)):
            with pytest.raises(ValueError, match="^s must be >= 0$"):
                certify_interval(6, 5, 9, s)
        row = certify_interval(6, 7, 7, 0)
        assert row.certified_bound == 0
        assert row.apex is None

    def test_evaluates_two_volumes(self, monkeypatch):
        # N_s and N_{s-1} serve both endpoints and the apex on every branch:
        # exactly two slab numerators, at s = a/b and at s - 1 = (a-b)/b.
        calls = []
        real_ratios = bounds._slab_ratios
        monkeypatch.setattr(bounds, "_slab_ratios", lambda *a: calls.append(a) or real_ratios(*a))
        cases = [(5, 9, Fraction(13, 5), "apex-interior"), (296, 786, Fraction(13, 10), "increasing"),
                 (2, 5, 1, "degenerate-linear-increasing"), (8, 12, Fraction(13, 5), "decreasing"),
                 (3, 4, Fraction(13, 2), "decreasing"), (3, 4, 7, "decreasing"),
                 (3, 4, Fraction(1, 3), "degenerate-linear-increasing")]
        for e_low, e_high, s, branch in cases:
            calls.clear()
            row = certify_interval(6, e_low, e_high, s)
            a, b = Fraction(s).numerator, Fraction(s).denominator
            assert calls == [(6, (a, b), (a - b, b))], s
            assert row.branch == branch, s

    def test_matches_fraction_oracle(self):
        # Second path: the Fraction evaluation, all four fields, on every
        # branch; s at integers, below 1, in [d, d + 1) and from d + 1 on.
        rng = random.Random(20110527)
        branches = dict.fromkeys(("decreasing", "degenerate-linear-increasing", "apex-interior", "increasing"), 0)
        for d in range(1, 13):
            slices = [Fraction(k) for k in range(d + 3)]
            slices += [Fraction(rng.randint(1, b - 1), b) for b in (2, 3, 7, 10, 97)]
            slices += [d + Fraction(rng.randint(0, b - 1), b) for b in (3, 10, 256)]
            slices += [Fraction(rng.randint(b, (d + 1) * b), b) for b in (5, 10, 33, 1000)]
            slices += [d + 1 + Fraction(rng.randint(0, 5 * b), b) for b in (1, 7)]
            for s in slices:
                for _ in range(4):
                    e_low = rng.randint(1, rng.choice([4, 40, 4000]))
                    e_high = e_low + rng.choice([0, 1, rng.randint(2, 40), rng.randint(2, 4000)])
                    row = certify_interval(d, e_low, e_high, s)
                    assert row == fraction_certify_interval(d, e_low, e_high, s), (d, e_low, e_high, s)
                    branches[row.branch] += 1
        assert branches == {
            "decreasing": 618, "degenerate-linear-increasing": 344, "apex-interior": 82, "increasing": 84,
        }

    def test_rejects_as_fraction_oracle(self):
        # The same checks, in the same order, with the same messages; the
        # dimension is checked last, as vol_slab checked it.  e_low's floor
        # comes before e_high is read and before the ends are compared.
        for args in [(6, Fraction(5, 2), 1, -1), (6, 5, Fraction(17, 2), 2), (0, 9, 5, -1), (0, 0, 9, -1),
                     (6, 0, -3, 2), (6, 0, Fraction(1, 2), 2),
                     (0, 5, 9, -1), (0, 5, 9, 2), (513, 5, 9, Fraction(1, 2)), (513, 5, 9, 600), (-1, 1, 1, 0)]:
            with pytest.raises(ValueError) as expected:
                fraction_certify_interval(*args)
            with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
                certify_interval(*args)

    def test_long_slice_beyond_cap(self, monkeypatch):
        # The work budget applies where a sum is evaluated, before any power;
        # a slice from d + 1 on needs none, and d <= s < d + 1 needs v_{s-1}.
        tiny = Fraction(1, 10**4000)
        with pytest.raises(ValueError, match="^summed slab sizes .* must be <= 131072, got 6808064$"):
            certify_interval(512, 5, 9, 512 + tiny)
        monkeypatch.setattr(slab, "_slab_numerator", lambda *a: pytest.fail("numerator computed"))
        # v_s and v_{s-1} at 511 + 1/2^k are 512 * (k + 9) bits each: k = 120
        # is the first pair past the budget, and at k = 128 each volume alone
        # is past half of it.
        for k, bits in ((128, 140288), (120, 132096)):
            with pytest.raises(ValueError, match=f"^summed slab sizes .* must be <= 131072, got {bits}$"):
                certify_interval(512, 5, 9, 511 + Fraction(1, 2**k))
        # k = 119, the last admitted pair, fills the budget.
        monkeypatch.setattr(slab, "_slab_numerator", lambda *a: 0)
        assert certify_interval(512, 5, 9, 511 + Fraction(1, 2**119)) == (None, 0, 0, "degenerate-linear-increasing")
        row = certify_interval(512, 5, 9, 600 + tiny)
        assert row == (Fraction(3, 2), -10, -54, "decreasing")
        assert row.certified_bound == -54

    def test_returns_values_it_could_not_print(self):
        # A 64 x 301-bit slice gives an apex of more than 4300 digits.  The
        # row holds values only, so nothing in the library converts it to text.
        s = Fraction(2**300 + 1, 2**299)
        row = certify_interval(64, 5, 9, s)
        assert row == fraction_certify_interval(64, 5, 9, s)
        assert row.apex.denominator.bit_length() > (10**4300).bit_length()

    def test_certified_bound_is_min_over_every_integer(self):
        # Second path: G at every integer of [a, b] from the termwise volumes.
        rng = random.Random(2011)
        branches = {}
        for _ in range(300):
            d = rng.randint(1, 9)
            s = Fraction(rng.randint(0, 10 * (d + 1)), rng.choice([1, 10]))
            e_low = rng.randint(1, rng.choice([10, 40, 400]))
            e_high = e_low + rng.choice([0, 1, rng.randint(2, 400)])
            v_s, v_prev = termwise_vol_slab(d, s), termwise_vol_slab(d, s - 1)
            row = certify_interval(d, e_low, e_high, s)
            assert row.certified_bound == min(e * (v_s - (e - 2) * v_prev) for e in range(e_low, e_high + 1))
            branches[row.branch] = branches.get(row.branch, 0) + 1
        assert branches == {
            "decreasing": 230, "degenerate-linear-increasing": 38, "apex-interior": 10, "increasing": 22,
        }

    def test_endpoints_and_apex_match_quadratic_helpers(self):
        for e_low, e_high, s in [(5, 9, Fraction(13, 5)), (296, 786, Fraction(13, 10)), (2, 5, 1), (8, 12, Fraction(13, 5))]:
            row = certify_interval(6, e_low, e_high, s)
            v_s, v_prev = termwise_vol_slab(6, s), termwise_vol_slab(6, s - 1)
            assert row.apex == ((v_s + 2 * v_prev) / (2 * v_prev) if v_prev else None)
            g_low, g_high = quadratic_g(6, e_low, s), quadratic_g(6, e_high, s)
            assert row.certified_bound in (g_low, g_high)
            assert g_low == ungrouped_bound(6, e_low, s, [1] * (e_low - 2))


class TestRadicalStep:
    def test_n2_b2_specializations(self):
        e, ehk = Fraction(9), Fraction(5, 4)
        assert radical_step_bound(e, 7, 2, 2, ehk) == e / (2 * (e - 1)) + (e - 2) / (2 * (e - 1)) * ehk
        assert radical_step_bound(e, 4, 2, 2, ehk) == e / (e + 5) + Fraction(5) / (e + 5) * ehk
        assert radical_step_bound(7, 3, 2, 2, Fraction(5, 4)) == Fraction(12, 11)

    def test_fixes_one_in_both_branches(self):
        assert radical_step_bound(6, 4, 2, 2, 1) == 1
        assert radical_step_bound(6, 3, 2, 2, 1) == 1
        assert radical_step_bound(7, 5, 3, 3, 1) == 1
        assert radical_step_bound(7, 3, 3, 3, 1) == 1

    def test_contracts_toward_one(self):
        for e, k in [(6, 4), (6, 3), (9, 7), (9, 4)]:
            for n in (2, 3, 5):
                value = radical_step_bound(e, k, n, n, Fraction(3, 2))
                assert 1 < value < Fraction(3, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            radical_step_bound(6, 4, 1, 1, 1)
        with pytest.raises(ValueError):
            radical_step_bound(6, 4, 2, 3, 1)
        with pytest.raises(ValueError):
            radical_step_bound(6, 4, 2, 0, 1)
        with pytest.raises(ValueError):
            radical_step_bound(6, 2, 2, 2, 1)
        with pytest.raises(ValueError):
            radical_step_bound(6, 5, 2, 2, 1)
        with pytest.raises(ValueError):
            radical_step_bound(6, 4, 2, 2, Fraction(1, 2))


class TestRadicalRecursion:
    def test_zero_iterations_is_half_multiplicity(self):
        assert radical_recursion_bound(4, 6, 4, 2, 0) == 3

    def test_minimal_gap_dimension_four(self):
        assert radical_recursion_bound(4, Fraction(6), 4, 2, 4) == Fraction(657, 625)

    def test_general_case_dimension_three(self):
        assert radical_recursion_bound(3, 6, 3, 2, 3) == Fraction(383, 375)
        # Same query with root degree 3 lands at 1 + 1/192.
        assert radical_recursion_bound(3, 6, 3, 3, 3) == Fraction(193, 192)

    def test_validation(self):
        for args, message in [
            ((1, 6, 4, 2, 1), "d must be >= 2"),
            ((3, 5, 3, 2, 1), "e must be >= 6"),
            ((3, Fraction(13, 2), 3, 2, 1), "e must be an integer, got 13/2"),
            ((3, 6, 2, 2, 1), "k must be >= 3"),
            ((3, 6, 5, 2, 1), "k must be <= 4, got 5"),
            # k's range is read with k, before n's floor.
            ((3, 6, 2, 1, 1), "k must be >= 3"),
            ((3, 6, 5, 1, -1), "k must be <= 4, got 5"),
            ((3, 6, 3, 1, 1), "n must be >= 2"),
            ((3, 6, 3, 2, -1), "iterations must be >= 0"),
        ]:
            with pytest.raises(ValueError, match=message):
                radical_recursion_bound(*args)

    def test_rejects_depth_past_print_budget(self):
        # 2500001 steps of the base 2/5 give a denominator of 5**2500001
        # (about 1 s to build), refused on the print budget before the power.
        with pytest.raises(ValueError, match=f"^{PRINT_BUDGET}$"):
            bounds._radical_terms(2, 6, 4, 2, 2_500_001)
        with pytest.raises(ValueError, match=f"^{PRINT_BUDGET}$"):
            radical_recursion_bound(2, 6, 4, 2, 2_500_001)
        # fixed_dimension_bound's general recursion first passes the budget at
        # d = 57; at d = 512 it used to return a 1986868-bit denominator.
        assert fixed_dimension_bound(56, 6, "general").denominator < 10**rationals._MAX_DIGITS
        for d in (57, slab._MAX_DIM):
            with pytest.raises(ValueError, match=f"^{PRINT_BUDGET}$"):
                fixed_dimension_bound(d, 6, "general")
        assert fixed_dimension_bound(slab._MAX_DIM, 6, "minimal_gap").denominator < 10**rationals._MAX_DIGITS

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(2, 10**6), e=CLI_INTEGER.map(lambda e: max(e, 6)), n=CLI_INTEGER.map(lambda n: max(n, 2)),
           data=st.data())
    def test_print_check_bounds_admitted_powers(self, d, e, n, data):
        # Over CLI-admissible radicals, both k branches: the first depth the
        # check refuses raises before base**iterations is built (the checked
        # terms are all that is formed), and the depth below it admits a power
        # of fewer than 2 * (L + bit length of numerator(start)) bits, L the
        # bit length of 10**4300: under 6 * 10**4 bits for a 4300-digit e.
        k = e - 2 if data.draw(st.booleans()) else data.draw(st.integers(3, e - 3))
        base, start = bounds._radical_terms(d, e, k, n, 0)
        budget_bits = (10**rationals._MAX_DIGITS).bit_length()
        most = 2 * (budget_bits + start.numerator.bit_length())
        refused = -(-(budget_bits + start.numerator.bit_length()) // (base.denominator.bit_length() - 1))
        with pytest.raises(ValueError, match=f"^{PRINT_BUDGET}$"):
            bounds._radical_terms(d, e, k, n, refused)
        with pytest.raises(ValueError, match=f"^{PRINT_BUDGET}$"):
            radical_recursion_bound(d, e, k, n, refused)
        assert bounds._radical_terms(d, e, k, n, refused - 1) == (base, start)
        power = base ** (refused - 1)
        assert max(power.numerator.bit_length(), power.denominator.bit_length()) < most
        assert (1 + base**refused * start).denominator >= 10**rationals._MAX_DIGITS

    def test_matches_iterated_step_oracle(self):
        # Every valid k on the grid d 2..8, e 6..24, n 2..5, iterations 0..6.
        cases = 0
        for d in range(2, 9):
            for e in range(6, 25):
                for k in range(3, e - 1):
                    for n in range(2, 6):
                        expected = radical_step_iterates(d, e, k, n, 6)
                        for iterations, value in enumerate(expected):
                            assert radical_recursion_bound(d, e, k, n, iterations) == value, (d, e, k, n, iterations)
                            cases += 1
        assert cases == 40964
        # A multiplicity is an integer; a rational one is rejected.
        with pytest.raises(ValueError, match="e must be an integer, got 17/2"):
            radical_recursion_bound(6, Fraction(17, 2), 4, 3, 3)


class TestFixedDimensionBound:
    def test_large_multiplicity_branch(self):
        assert fixed_dimension_bound(3, 7, "minimal_gap") == Fraction(7, 6)
        assert fixed_dimension_bound(3, 7, "general") == Fraction(7, 6)
        assert fixed_dimension_bound(2, 6, "minimal_gap") == Fraction(3, 2)

    def test_closed_forms(self):
        assert fixed_dimension_bound(4, 6, "minimal_gap") == Fraction(657, 625)
        assert fixed_dimension_bound(3, 6, "general") == Fraction(383, 375)
        assert fixed_dimension_bound(4, 6, "general") == Fraction(114245, 114244)

    def test_closed_forms_equal_iterated_step_oracle(self):
        # An identity check of the two closed forms against d steps of the
        # oracle at fixed parameters; it makes no claim about how the
        # parameters arise.
        for d in range(3, 13):
            minimal_gap = radical_step_iterates(d, 6, 4, ceil(Fraction(d, 2)), d)[-1]
            general = radical_step_iterates(d, factorial(d), 3, ceil(Fraction(d, 3)) + 1, d)[-1]
            assert fixed_dimension_bound(d, 6, "minimal_gap") == minimal_gap, d
            assert fixed_dimension_bound(d, 6, "general") == general, d

    def test_validation(self):
        with pytest.raises(ValueError):
            fixed_dimension_bound(1, 6, "minimal_gap")
        with pytest.raises(ValueError):
            fixed_dimension_bound(3, 5, "minimal_gap")
        with pytest.raises(ValueError):
            fixed_dimension_bound(3, 6, "nope")
        # The case is checked before e >= d! + 1 answers 1 + 1/d!.
        with pytest.raises(ValueError, match="case must be 'minimal_gap' or 'general', got 'bogus'"):
            fixed_dimension_bound(2, 6, "bogus")
        for case in ("minimal_gap", "general"):
            with pytest.raises(ValueError, match="e must be an integer, got 17/2"):
                fixed_dimension_bound(6, Fraction(17, 2), case)

    def test_rejects_dimension_beyond_cap(self, monkeypatch):
        # Checked before d! or the recursion is computed.
        monkeypatch.setattr(bounds, "factorial", lambda *a: pytest.fail("factorial computed"))
        monkeypatch.setattr(bounds, "radical_recursion_bound", lambda *a: pytest.fail("recursion run"))
        assert slab._MAX_DIM == 512
        for d in (513, 10**8):
            for case in ("minimal_gap", "general"):
                with pytest.raises(ValueError, match=f"^d must be <= 512, got {d}$"):
                    fixed_dimension_bound(d, 6, case)

    def test_admits_dimension_at_cap(self, monkeypatch):
        monkeypatch.setattr(bounds, "radical_recursion_bound", lambda *a: a)
        assert fixed_dimension_bound(512, 6, "minimal_gap") == (512, 6, 4, 256, 512)
        assert fixed_dimension_bound(512, 6, "general") == (512, factorial(512), 3, 172, 512)
