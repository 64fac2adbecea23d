import itertools
import random
from fractions import Fraction
from math import floor, prod
from types import SimpleNamespace

import pytest

from hkcert import monomial
from hkcert.monomial import (
    MonomialIdeal,
    ehk_estimate,
    frobenius_colength,
    mixed_colength,
    parse_generators,
)
from hkcert.slab import vol_slab
import oracles


def brute_colength(ideal: MonomialIdeal, q: int) -> int:
    """Reference count: full box scan with a direct dominance test."""
    box = [q * c for c in ideal.pure_power_exponents()]
    outside = 0
    for point in itertools.product(*(range(b) for b in box)):
        if not any(all(a >= q * g for a, g in zip(point, gen)) for gen in ideal.generators):
            outside += 1
    return outside


def scan_colength(gens) -> int:
    """Reference lambda(R/I) from a raw generator list: scan the prefixes of the
    first n-1 coordinates row-major and test every generator on every row.  The
    points outside the ideal along the last axis form an initial segment as long
    as the least last exponent among the generators the prefix dominates (c_n if
    none), so the cost is rows x generators x n."""
    box = oracles.pure_powers(gens)
    count = 0
    for prefix in itertools.product(*(range(b) for b in box[:-1])):
        threshold = box[-1]
        for g in gens:
            if g[-1] < threshold and all(prefix[i] >= g[i] for i in range(len(prefix))):
                threshold = g[-1]
        count += threshold
    return count


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head, *rest)


def brute_mixed_colength(ideal: MonomialIdeal, s: Fraction, q: int) -> int:
    """Reference count for the mixed colength, via explicit ordinary-power
    generators: a point lies in J^k exactly when some product of k pure
    powers divides it, i.e. some exponent split alpha with sum k fits
    under the point coordinatewise."""
    cs = ideal.pure_power_exponents()
    cut = floor(s * q)
    if cut <= 0:
        return 0
    outside = 0
    for point in itertools.product(*(range(q * c) for c in cs)):
        in_power = any(
            all(a >= c * al for a, c, al in zip(point, cs, alpha))
            for alpha in compositions(cut, len(cs))
        )
        if not in_power:
            outside += 1
    return outside


ORACLE_QS = (1, 2, 3, 4, 5, 7, 8)


def pure_power_ideal(cs) -> MonomialIdeal:
    n = len(cs)
    return MonomialIdeal(n, tuple(tuple(c if j == i else 0 for j in range(n)) for i, c in enumerate(cs)))


def seeded_exponents(count_per_n: dict[int, int], seed: int = 20111):
    """Seeded pure-power exponent vectors c with 1 <= c_i <= 4, count_per_n[n] of each length n."""
    rng = random.Random(seed)
    for n, count in count_per_n.items():
        for _ in range(count):
            yield tuple(rng.randint(1, 4) for _ in range(n))


def seeded_ideals(count_per_n: dict[int, int], seed: int = 20111):
    """Seeded m-primary ideals: the pure powers of ``seeded_exponents`` plus, in
    two or more variables, up to three mixed generators below them."""
    rng = random.Random(seed + 1)
    for cs in seeded_exponents(count_per_n, seed):
        gens = list(pure_power_ideal(cs).generators)
        for _ in range(rng.randint(0, 3) if len(cs) > 1 else 0):
            g = tuple(rng.randint(0, c - 1) for c in cs)
            if any(g):
                gens.append(g)
        yield MonomialIdeal(len(cs), tuple(gens))


def seeded_generator_lists(count: int, seed: int = 20181):
    """Seeded raw generator lists of m-primary ideals in 1-5 variables, boxes of
    at most 256 points: pure powers (x_i^1 among them, so unit axes), up to five
    mixed generators inside or on the edge of the box, multiples of earlier
    generators, raised pure powers and exact duplicates, in shuffled order."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        cs = [rng.choice((1, 1, 2, 3, 4)) for _ in range(n)]
        while prod(cs) > 256:
            cs[cs.index(max(cs))] -= 1
        gens = [tuple(c if j == i else 0 for j in range(n)) for i, c in enumerate(cs)]
        for _ in range(rng.randint(0, 5)):
            g = tuple(rng.randint(0, c) for c in cs)
            if any(g):
                gens.append(g)
        for _ in range(rng.randint(0, 2)):
            gens.append(tuple(a + rng.randint(0, 2) for a in rng.choice(gens)))
        for _ in range(rng.randint(0, 2)):
            gens.append(rng.choice(gens))
        rng.shuffle(gens)
        yield n, gens


SQUARE = MonomialIdeal(2, ((2, 0), (1, 1), (0, 2)))


class TestMonomialIdeal:
    def test_requires_pure_power_witness(self):
        with pytest.raises(ValueError):
            MonomialIdeal(2, ((1, 0), (1, 1)))

    def test_rejects_unit_and_negative(self):
        with pytest.raises(ValueError):
            MonomialIdeal(1, ((0,),))
        with pytest.raises(ValueError):
            MonomialIdeal(2, ((1, -1), (0, 1)))
        with pytest.raises(ValueError):
            MonomialIdeal(2, ((1, 0, 0), (0, 1)))
        with pytest.raises(ValueError):
            MonomialIdeal(2, ())

    def test_minimalizes_generators(self):
        ideal = MonomialIdeal(2, ((3, 0), (1, 0), (0, 2), (2, 2), (0, 2)))
        assert ideal.generators == ((0, 2), (1, 0))
        assert ideal.pure_power_exponents() == (1, 2)

    def test_rejects_non_integer_exponents(self):
        # Truncating 1.5 to 1 would build (x, y^2) and count a colength of 2.
        for bad in ((1.5, 0), (2.0, 0), (Fraction(3, 2), 0), ("1", 0)):
            with pytest.raises(ValueError, match="exponents must be integers"):
                MonomialIdeal(2, (bad, (0, 2)))

    def test_seeded_generator_lists_match_all_pairs_oracle(self):
        # The kept-only minimalization and the one-pass pure powers against the
        # all-pairs minimalization and the least pure power of each variable.
        dropped = duplicated = 0
        for n, gens in seeded_generator_lists(1200):
            ideal = MonomialIdeal(n, gens)
            assert ideal.generators == tuple(oracles.minimal_generators(gens)), gens
            assert ideal.pure_power_exponents() == tuple(oracles.pure_powers(gens)), gens
            duplicated += len(set(gens)) < len(gens)
            dropped += len(ideal.generators) < len(set(gens))
        assert (duplicated, dropped) == (948, 1042)

    def test_replace_and_make_run_the_constructor_checks(self):
        # The NamedTuple helpers used to skip __new__: this _replace built a
        # non-m-primary ideal whose colength read 0.
        ideal = MonomialIdeal(2, ((2, 0), (1, 1), (0, 2)))
        with pytest.raises(ValueError, match="not m-primary: no pure power of variable 0"):
            ideal._replace(generators=((1, 1), (0, 2)))
        with pytest.raises(ValueError, match="exponents must be integers"):
            MonomialIdeal._make((2, ((1.5, 0), (0, 2))))
        # A non-minimal list is minimalized, so the sweep's one generator a
        # prefix holds: (1, 0) must not be overwritten by (1, 2).
        gens = ((2, 0), (1, 0), (1, 2), (0, 3))
        for built in (ideal._replace(generators=gens), MonomialIdeal._make((2, gens))):
            assert type(built) is MonomialIdeal
            assert built == MonomialIdeal(2, gens) == (2, ((0, 3), (1, 0)))
            assert frobenius_colength(built, 1) == scan_colength(gens) == 3

    def test_parameter_ideal_detection(self):
        assert MonomialIdeal(2, ((3, 0), (0, 2))).is_parameter_ideal()
        assert not SQUARE.is_parameter_ideal()


class TestFrobeniusColength:
    def test_plane_box(self):
        assert frobenius_colength(MonomialIdeal(2, ((1, 0), (0, 1))), 5) == 25

    def test_staircase_square(self):
        assert frobenius_colength(SQUARE, 3) == 27
        for q in (1, 2, 3, 4, 8):
            assert frobenius_colength(SQUARE, q) == 3 * q * q

    def test_pure_power_box(self):
        assert frobenius_colength(MonomialIdeal(2, ((3, 0), (0, 2))), 2) == 24

    def test_matches_brute_force(self):
        ideals = [
            SQUARE,
            MonomialIdeal(2, ((3, 0), (1, 2), (0, 3))),
            MonomialIdeal(3, ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1))),
            MonomialIdeal(1, ((4,),)),
        ]
        for ideal in ideals:
            for q in (1, 2, 3):
                assert frobenius_colength(ideal, q) == brute_colength(ideal, q)
        # The q factor against the direct-dominance count on the q-scaled box.
        checked = 0
        for ideal in seeded_ideals({1: 4, 2: 6, 3: 5, 4: 3}):
            for q in ORACLE_QS:
                if prod(q * c for c in ideal.pure_power_exponents()) <= 4096:
                    assert frobenius_colength(ideal, q) == brute_colength(ideal, q), (ideal, q)
                    checked += 1
        assert checked == 106

    def test_scaling_identity_for_pure_powers(self):
        base = MonomialIdeal(2, ((2, 0), (0, 3)))
        for m in (2, 3):
            scaled = MonomialIdeal(2, tuple(tuple(m * c for c in g) for g in base.generators))
            for q in (1, 2, 4):
                assert frobenius_colength(scaled, q) == frobenius_colength(base, q * m)

    def test_containment_monotonicity(self):
        smaller = MonomialIdeal(2, ((2, 0), (1, 1), (0, 3)))  # contained in (x, y)
        larger = MonomialIdeal(2, ((1, 0), (0, 1)))
        for q in (1, 2, 4):
            assert frobenius_colength(smaller, q) >= frobenius_colength(larger, q)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            frobenius_colength(SQUARE, 0)

    def test_sweep_matches_scan_and_brute_force(self):
        # The prefix-minimum sweep against the rows x generators scan and the
        # direct-dominance count, on raw lists with unit axes, duplicates and
        # non-minimal generators.
        unit_axes = 0
        for n, gens in seeded_generator_lists(1200):
            ideal = MonomialIdeal(n, gens)
            length = frobenius_colength(ideal, 1)
            assert length == scan_colength(gens) == brute_colength(ideal, 1), gens
            unit_axes += 1 in ideal.pure_power_exponents()[:-1]
        assert unit_axes == 692

    def test_sweep_skips_unit_axes(self, monkeypatch):
        # One pass per axis of length >= 2 among the first n-1, counted, not timed.
        passes = []
        sweep = monomial._min_pass
        monkeypatch.setattr(monomial, "_min_pass", lambda t, c: passes.append(c) or sweep(t, c))
        n = 120
        cs = [1] * n
        cs[4], cs[70], cs[-1] = 4, 3, 5
        gens = [tuple(c if j == i else 0 for j in range(n)) for i, c in enumerate(cs)]
        for mixed in ({4: 1, n - 1: 2}, {4: 2, 70: 1}, {70: 2, n - 1: 1}, {4: 3, 70: 2, n - 1: 4}):
            gens.append(tuple(mixed.get(j, 0) for j in range(n)))
        ideal = MonomialIdeal(n, gens)
        assert frobenius_colength(ideal, 1) == scan_colength(gens) == brute_colength(ideal, 1)
        assert passes == [4, 3]
        passes.clear()
        assert frobenius_colength(MonomialIdeal(1, ((4,),)), 3) == 12
        assert passes == []

    def test_sweep_counts_former_work_cap_input(self, monkeypatch):
        # 10**6 rows and 5 generators: two passes, one per axis of length
        # 1000, whatever the generator count.
        passes = []
        sweep = monomial._min_pass
        monkeypatch.setattr(monomial, "_min_pass", lambda t, c: passes.append(c) or sweep(t, c))
        ideal = MonomialIdeal(3, ((1000, 0, 0), (0, 1000, 0), (0, 0, 1), (500, 500, 0), (999, 1, 0)))
        assert frobenius_colength(ideal, 1) == 10**6 - 500**2 - 999 + 500 == 749501
        assert passes == [1000, 1000]

    def test_scans_reject_boxes_beyond_row_cap(self, monkeypatch):
        # Should the cap ever be lost, fail instead of allocating the huge box
        # or materializing the huge ranges.
        monkeypatch.setattr(monomial, "_staircase_colength", lambda *a: pytest.fail("sweep started"))
        monkeypatch.setattr(monomial, "itertools", SimpleNamespace(product=lambda *a: pytest.fail("scan started")))
        with pytest.raises(ValueError, match="rows, more than 1000000"):
            frobenius_colength(MonomialIdeal(2, ((10**12, 0), (0, 1))), 1)
        with pytest.raises(ValueError, match="rows, more than 1000000"):
            mixed_colength(MonomialIdeal(2, ((2, 0), (0, 3))), 1, 500001)

    def test_scans_admit_boxes_at_row_cap(self, monkeypatch):
        # Exactly 10**6 rows; the stubbed sweep and scan visit none of them.
        monkeypatch.setattr(monomial, "_staircase_colength", lambda *a: 0)
        monkeypatch.setattr(monomial, "itertools", SimpleNamespace(product=lambda *a: ()))
        assert frobenius_colength(MonomialIdeal(2, ((10**6, 0), (0, 1))), 1) == 0
        assert mixed_colength(MonomialIdeal(2, ((2, 0), (0, 3))), 1, 500000) == 0

    def test_rejects_generators_beyond_cap(self, monkeypatch):
        # Checked before the quadratic minimalization.
        monkeypatch.setattr(monomial, "_dominates", lambda *a: pytest.fail("minimalization started"))
        assert monomial._MAX_GENERATORS == 1000
        staircase = [(i, 1000 - i) for i in range(1001)]
        with pytest.raises(ValueError, match="at most 1000 generators are supported, got 1001"):
            MonomialIdeal(2, staircase)

    def test_admits_generators_at_cap(self, monkeypatch):
        # 1000 generators pass the cap; the stub keeps all of them minimal.
        monkeypatch.setattr(monomial, "_dominates", lambda *a: False)
        staircase = [(i, 999 - i) for i in range(1000)]
        assert len(MonomialIdeal(2, staircase).generators) == 1000

    def test_rejects_minimalize_work_beyond_cap(self, monkeypatch):
        # One pure square per variable in 1000 variables: 10**9 pairs times
        # variables, refused before the minimalization starts.
        monkeypatch.setattr(monomial, "_dominates", lambda *a: pytest.fail("minimalization started"))
        assert monomial._MAX_MINIMALIZE_WORK == 10**8
        squares = [tuple(2 * (j == i) for j in range(1000)) for i in range(1000)]
        with pytest.raises(ValueError, match="minimalizing needs 1000000000 pairs \\* variables, more than 100000000"):
            MonomialIdeal(1000, squares)
        # One variable more than the admitted 1000 generators in 100 variables.
        with pytest.raises(ValueError, match="minimalizing needs 101000000 pairs"):
            MonomialIdeal(101, [(1,) * 101] * 1000)

    def test_admits_minimalize_work_at_cap(self, monkeypatch):
        # 1000 generators in 100 variables is exactly 10**8; the stub keeps all of them.
        monkeypatch.setattr(monomial, "_dominates", lambda *a: False)
        n = 100
        squares = [tuple(2 * (j == i) for j in range(n)) for i in range(n)]
        pairs = [tuple(int(j in (a, b)) for j in range(n)) for a, b in itertools.combinations(range(43), 2)]
        assert len(MonomialIdeal(n, squares + pairs[:900]).generators) == 1000

    def test_matches_closed_form(self):
        corner = pure_power_ideal((4, 4, 4, 4))
        for ideal in (corner, *seeded_ideals({1: 4, 2: 6, 3: 5, 4: 3})):
            for q in ORACLE_QS:
                assert frobenius_colength(ideal, q) == oracles.frobenius_colength(ideal.generators, q), (ideal, q)


class TestMixedColength:
    def test_triangle(self):
        plane = MonomialIdeal(2, ((1, 0), (0, 1)))
        assert mixed_colength(plane, 1, 4) == 10

    def test_bracket_power_dominates_at_s_2(self):
        plane = MonomialIdeal(2, ((1, 0), (0, 1)))
        for q in (2, 5, 9):
            assert mixed_colength(plane, 2, q) == q * q

    def test_zero_slice(self):
        plane = MonomialIdeal(2, ((1, 0), (0, 1)))
        assert mixed_colength(plane, 0, 7) == 0
        assert mixed_colength(plane, Fraction(1, 8), 7) == 0

    def test_cube_at_half(self):
        space = MonomialIdeal(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert mixed_colength(space, Fraction(3, 2), 8) == 304

    def test_converges_to_slab_volume(self):
        q = 32
        for d in (1, 2, 3):
            ideal = MonomialIdeal(d, tuple(tuple(int(i == j) for j in range(d)) for i in range(d)))
            for s in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
                estimate = Fraction(mixed_colength(ideal, s, q), q**d)
                assert abs(estimate - vol_slab(d, s)) <= Fraction(3 * d, q)

    def test_matches_ordinary_power_enumeration(self):
        shapes = [(2, 3), (1, 2), (3,), (2, 1, 2)]
        for cs in shapes:
            ideal = pure_power_ideal(cs)
            for q in (1, 2, 3):
                for s in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(5, 2)):
                    assert mixed_colength(ideal, s, q) == brute_mixed_colength(ideal, s, q)

    def test_converges_to_multiplicity_times_volume(self):
        # For J = (x^2, y^3) the normalization approaches e(J) v_s = 6 v_s.
        ideal = MonomialIdeal(2, ((2, 0), (0, 3)))
        q = 16
        for s in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
            estimate = Fraction(mixed_colength(ideal, s, q), q**2)
            assert abs(estimate - 6 * vol_slab(2, s)) <= Fraction(6 * 3 * 2, q)

    def test_matches_closed_form(self):
        for cs in seeded_exponents({1: 4, 2: 5, 3: 4, 4: 2}):
            ideal = pure_power_ideal(cs)
            for q in ORACLE_QS:
                for k in range(4 * (len(cs) + 1) + 1):
                    s = Fraction(k, 4)
                    assert mixed_colength(ideal, s, q) == oracles.mixed_colength(cs, s, q), (ideal, s, q)

    def test_requires_parameter_ideal(self):
        with pytest.raises(ValueError):
            mixed_colength(SQUARE, 1, 2)

    def test_rejects_negative_slice(self):
        plane = MonomialIdeal(2, ((1, 0), (0, 1)))
        with pytest.raises(ValueError):
            mixed_colength(plane, -1, 2)

    def test_floor_convention(self):
        # floor(s*q) jumps only at multiples of 1/q.
        plane = MonomialIdeal(2, ((1, 0), (0, 1)))
        assert mixed_colength(plane, Fraction(7, 8), 4) == mixed_colength(plane, Fraction(3, 4), 4)
        assert mixed_colength(plane, Fraction(7, 8), 8) > mixed_colength(plane, Fraction(3, 4), 8)


class TestEhkEstimate:
    def test_staircase_sequence(self):
        seq = ehk_estimate(SQUARE, [2, 3, 4, 8])
        assert [entry.normalized for entry in seq.entries] == [Fraction(3)] * 4

    def test_regular_parameter_sequence(self):
        space = MonomialIdeal(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        seq = ehk_estimate(space, [2, 4])
        assert [entry.normalized for entry in seq.entries] == [Fraction(1)] * 2

    def test_box_sequence(self):
        seq = ehk_estimate(MonomialIdeal(2, ((3, 0), (0, 2))), [2, 5])
        assert [entry.normalized for entry in seq.entries] == [Fraction(6)] * 2

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            ehk_estimate(SQUARE, [])
        with pytest.raises(ValueError):
            ehk_estimate(SQUARE, [2, 2])
        with pytest.raises(ValueError):
            ehk_estimate(SQUARE, [0, 2])


class TestParsing:
    def test_parse_generators(self):
        ideal = parse_generators("# squares\n2 0\n1 1\n0 2\n\n")
        assert ideal == SQUARE

    def test_parse_error_names_the_line(self):
        # Comments and blank lines count: the bad row is the file's third line.
        with pytest.raises(ValueError, match="^line 3: expected space-separated integers, got '1 x'$"):
            parse_generators("# comment\n\n1 x\n2 0\n")

    def test_parse_width_error_names_the_line(self):
        # The width is the first row's; the row that differs is the file's second line.
        with pytest.raises(ValueError, match=r"^line 2: generator \(0, 2, 1\) does not have 2 exponents$"):
            parse_generators("2 0\n0 2 1\n")

    def test_parse_rejects_bad_tokens(self):
        with pytest.raises(ValueError):
            parse_generators("2 x\n")
        with pytest.raises(ValueError):
            parse_generators("# nothing\n")
