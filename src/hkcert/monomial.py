"""Frobenius-power colengths of m-primary monomial ideals.

For a monomial ideal I in n variables, the bracket power I^[q] is
generated by the q-scaled exponent vectors, and the colength of R/I^[q]
is the number of lattice points outside the scaled staircase.  That
count is q^n times the colength of R/I (Frobenius is flat on a regular
ring), so ``frobenius_colength`` counts lambda(R/I) once, at q = 1, and
multiplies.  Counting is a deterministic row-major scan of the bounding
box given by the pure powers in I (the m-primary witness), with the
innermost axis collapsed to a threshold test: once a point enters the
ideal every later point in the row is inside too, by upward closure.

This realizes the Hilbert-Kunz numerator exactly at finite q and serves
as the desk-scale oracle for the slab-volume machinery via
``mixed_colength`` (colength of J^{floor(sq)} + J^[q] for a pure-power
parameter ideal J, whose normalization converges to e(J) * v_s).  That
scan still walks the q-scaled box, so its cost grows like q^(n-1).

Both scans refuse a box of more than ``_MAX_SCAN_ROWS`` rows (prefixes
of the first n-1 coordinates) with ValueError before they start, and the
staircase scan also refuses more than ``_MAX_SCAN_WORK`` rows times
generators.  ``MonomialIdeal`` refuses more than ``_MAX_GENERATORS``
generators before it minimalizes.  The test suite keeps a brute-force
count and a closed form for each scan as second paths (see the two
docstrings below).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import floor, prod
from typing import NamedTuple, Sequence

from .rationals import Rational

__all__ = [
    "ColengthEntry",
    "ColengthSequence",
    "MonomialIdeal",
    "ehk_estimate",
    "frobenius_colength",
    "mixed_colength",
    "parse_generators",
]


# Row cap for both scans.  A row costs about 1-5 microseconds (more with
# more generators; Python 3.11, 2-core x86-64), so 10**6 rows take up to
# about 5 s, the most a desk-scale command should spend before it answers.
_MAX_SCAN_ROWS = 10**6
# The staircase scan tests every generator on every row, at 0.9-1.3
# microseconds per row and generator (2-4 variables, same machine), so
# its cap counts rows * generators: up to about 5 s.
_MAX_SCAN_WORK = 4 * 10**6
# Minimalizing tests every pair of generators: the 2-variable staircase
# (i, N - i), i = 0..N, took 0.27 s to build at N = 500 and 1.6 s at N = 1000.
_MAX_GENERATORS = 1000


class _MonomialIdealFields(NamedTuple):
    num_vars: int
    generators: tuple[tuple[int, ...], ...]


class MonomialIdeal(_MonomialIdealFields):
    """m-primary monomial ideal given by exponent vectors.

    The constructor rejects ideals without a pure power of every
    variable (the m-primariness witness) and stores the generator list
    minimally and sorted: no generator componentwise-dominates another.
    """

    __slots__ = ()

    def __new__(cls, num_vars: int, generators: Sequence[Sequence[int]]) -> MonomialIdeal:
        if num_vars < 1:
            raise ValueError("need at least one variable")
        if len(generators) > _MAX_GENERATORS:
            raise ValueError(f"at most {_MAX_GENERATORS} generators are supported, got {len(generators)}")
        gens = [tuple(int(c) for c in g) for g in generators]
        if not gens:
            raise ValueError("generator list must be non-empty")
        for g in gens:
            if len(g) != num_vars:
                raise ValueError(f"generator {g} does not have {num_vars} exponents")
            if any(c < 0 for c in g):
                raise ValueError(f"generator {g} has a negative exponent")
            if not any(g):
                raise ValueError("the unit monomial generates the whole ring")
        minimal: list[tuple[int, ...]] = []
        for g in sorted(set(gens)):
            if not any(_dominates(g, h) for h in gens if h != g):
                minimal.append(g)
        for i in range(num_vars):
            if not any(_is_pure_power(g, i) for g in minimal):
                raise ValueError(f"not m-primary: no pure power of variable {i} among the generators")
        return super().__new__(cls, num_vars, tuple(minimal))

    def pure_power_exponents(self) -> tuple[int, ...]:
        """Exponent c_i of the (minimal) pure power of each variable."""
        return tuple(
            min(g[i] for g in self.generators if _is_pure_power(g, i)) for i in range(self.num_vars)
        )

    def is_parameter_ideal(self) -> bool:
        """True when the generators are exactly one pure power per variable."""
        return len(self.generators) == self.num_vars


def _dominates(g: tuple[int, ...], h: tuple[int, ...]) -> bool:
    return all(a >= b for a, b in zip(g, h))


def _is_pure_power(g: tuple[int, ...], i: int) -> bool:
    return g[i] > 0 and all(c == 0 for j, c in enumerate(g) if j != i)


def frobenius_colength(ideal: MonomialIdeal, q: int) -> int:
    """Number of lattice points outside the bracket power I^[q].

    The count equals q^n * lambda(R/I), because Frobenius is flat on a
    regular ring (Kunz 1969).  For monomials: write a = q*b + r with
    0 <= r_i < q; then a dominates q*g exactly when b dominates g, so
    x^a lies outside I^[q] exactly when x^b lies outside I, and each such
    b has q^n residues r.

    lambda(R/I) is counted once by scanning the box prod [0, c_i)
    row-major; for each prefix of the first n-1 coordinates the points
    outside the ideal along the last axis form an initial segment, whose
    length is the smallest last exponent among generators already
    dominated in the prefix.  The cost does not depend on q.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    box = ideal.pure_power_exponents()
    rows = prod(box[:-1])
    if rows > _MAX_SCAN_ROWS:
        raise ValueError(f"the staircase scan needs {rows} rows, more than {_MAX_SCAN_ROWS}")
    work = rows * len(ideal.generators)
    if work > _MAX_SCAN_WORK:
        raise ValueError(f"the staircase scan needs {work} rows * generators, more than {_MAX_SCAN_WORK}")
    count = 0
    for prefix in itertools.product(*(range(b) for b in box[:-1])):
        threshold = box[-1]
        for g in ideal.generators:
            if g[-1] < threshold and all(prefix[i] >= g[i] for i in range(len(prefix))):
                threshold = g[-1]
                if threshold == 0:
                    break
        count += threshold
    return q**ideal.num_vars * count


def mixed_colength(ideal: MonomialIdeal, s: Rational, q: int) -> int:
    """Colength of J^{floor(s*q)} + J^[q] for a pure-power ideal J.

    Membership of a point a in J^k is decided by sum_i floor(a_i / c_i)
    >= k, so the complement of the union consists of the points of the
    bracket-power box whose floor-sum stays below floor(s*q).

    In closed form: write a_i = c_i*b_i + r_i with 0 <= r_i < c_i and
    0 <= b_i < q.  The point stays outside exactly when sum b_i <= m =
    floor(s*q) - 1, whatever its residues r, so the colength is prod c_i
    times the number of such b, which inclusion-exclusion over the
    coordinates with b_i >= q gives as

        sum_j (-1)^j C(n, j) C(m - j*q + n, n)   over j with m - j*q >= 0.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if not ideal.is_parameter_ideal():
        raise ValueError("mixed_colength requires a pure-power (parameter) ideal")
    s = Fraction(s)
    if s < 0:
        raise ValueError("s must be >= 0")
    cut = floor(s * q)
    if cut <= 0:
        return 0
    cs = ideal.pure_power_exponents()
    rows = prod(q * c for c in cs[:-1])
    if rows > _MAX_SCAN_ROWS:
        raise ValueError(f"the mixed colength scan needs {rows} rows, more than {_MAX_SCAN_ROWS}")
    budget = cut - 1
    last = cs[-1]
    count = 0
    for prefix in itertools.product(*(range(q * c) for c in cs[:-1])):
        remaining = budget - sum(a // c for a, c in zip(prefix, cs))
        if remaining >= 0:
            count += min(q * last, (remaining + 1) * last)
    return count


class ColengthEntry(NamedTuple):
    q: int
    colength: int
    normalized: Fraction


class ColengthSequence(NamedTuple):
    """Raw colength sequence lambda(R/I^[q]) / q^n; no extrapolation."""

    entries: tuple[ColengthEntry, ...]


def ehk_estimate(ideal: MonomialIdeal, q_list: Sequence[int]) -> ColengthSequence:
    """Colengths and normalized values for each q in an increasing list.

    The sequence is constant: lambda(R/I^[q]) / q^n = lambda(R/I) for
    every q (see ``frobenius_colength``), so lambda(R/I) is counted once.
    """
    qs = list(q_list)
    if not qs:
        raise ValueError("q_list must be non-empty")
    if any(b <= a for a, b in zip(qs, qs[1:])) or qs[0] < 1:
        raise ValueError("q_list must be strictly increasing and positive")
    length = frobenius_colength(ideal, 1)
    n = ideal.num_vars
    return ColengthSequence(entries=tuple(ColengthEntry(q, q**n * length, Fraction(length)) for q in qs))


def parse_generators(text: str) -> MonomialIdeal:
    """Parse the ideal file format: one generator per line, space-separated exponents.

    Blank lines and lines starting with '#' are ignored.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append(tuple(int(tok) for tok in line.split()))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: expected space-separated integers, got {raw!r}") from exc
    if not rows:
        raise ValueError("no generators found")
    width = len(rows[0])
    return MonomialIdeal(num_vars=width, generators=tuple(rows))
