"""Frobenius-power colengths of m-primary monomial ideals.

For a monomial ideal I in n variables, the bracket power I^[q] is
generated by the q-scaled exponent vectors, and the colength of R/I^[q]
is the number of lattice points outside the scaled staircase.  That
count is q^n times the colength of R/I (Frobenius is flat on a regular
ring), so ``frobenius_colength`` counts lambda(R/I) once, at q = 1, by a
prefix-minimum sweep over the bounding box given by the pure powers in I
(the m-primary witness), and multiplies.

This realizes the Hilbert-Kunz numerator exactly at finite q and serves
as the desk-scale oracle for the slab-volume machinery via
``mixed_colength`` (colength of J^{floor(sq)} + J^[q] for a pure-power
parameter ideal J, whose normalization converges to e(J) * v_s).  That
scan still walks the q-scaled box, so its cost grows like q^(n-1).

The ``_MAX_*`` caps below refuse oversized input with ValueError before
any work starts.  The test suite keeps second paths for each count (see
the two docstrings below) and for the minimalization.
"""

from __future__ import annotations

import itertools
import operator
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


# Row cap for both counts.  The mixed scan costs about 1-5 microseconds a
# row (Python 3.11, 2-core x86-64), so 10**6 rows take up to about 5 s,
# the most a desk-scale command should spend before it answers.  The
# staircase sweep takes 0.25-1.3 s there (1-19 passes), whatever the generators.
_MAX_SCAN_ROWS = 10**6
# Minimalizing tests each generator against those already kept, up to n
# steps a pair at 12-15 ns a step in many variables (same machine): the
# 2-variable staircase (i, 1000 - i) takes 0.22 s, one pure square per
# variable 0.76 s at 400 variables, and 1000 generators in 100 variables,
# every pair compared in full, 1.4 s (10**8 pairs * variables).
_MAX_GENERATORS = 1000
_MAX_MINIMALIZE_WORK = 10**8


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
        work = len(generators) ** 2 * num_vars
        if work > _MAX_MINIMALIZE_WORK:
            raise ValueError(f"minimalizing needs {work} pairs * variables, more than {_MAX_MINIMALIZE_WORK}")
        try:
            gens = [tuple(map(operator.index, g)) for g in generators]
        except TypeError:
            raise ValueError("exponents must be integers") from None
        if not gens:
            raise ValueError("generator list must be non-empty")
        for g in gens:
            if len(g) != num_vars:
                raise ValueError(f"generator {g} does not have {num_vars} exponents")
            if any(c < 0 for c in g):
                raise ValueError(f"generator {g} has a negative exponent")
            if not any(g):
                raise ValueError("the unit monomial generates the whole ring")
        # A divisor precedes its multiples in lexicographic order, so testing
        # against the generators already kept is enough.
        minimal: list[tuple[int, ...]] = []
        for g in sorted(set(gens)):
            if not any(_dominates(g, h) for h in minimal):
                minimal.append(g)
        ideal = super().__new__(cls, num_vars, tuple(minimal))
        powers = ideal.pure_power_exponents()
        if 0 in powers:
            raise ValueError(f"not m-primary: no pure power of variable {powers.index(0)} among the generators")
        return ideal

    @classmethod
    def _make(cls, iterable) -> MonomialIdeal:  # so _replace runs the checks too
        return cls(*iterable)

    def pure_power_exponents(self) -> tuple[int, ...]:
        """Exponent c_i of the pure power of each variable (0 if none; a minimal list has at most one)."""
        powers = [0] * self.num_vars
        for g in self.generators:
            top = max(g)
            if sum(g) == top:  # one nonzero exponent
                powers[g.index(top)] = top
        return tuple(powers)

    def is_parameter_ideal(self) -> bool:
        """True when the generators are exactly one pure power per variable."""
        return len(self.generators) == self.num_vars


def _dominates(g: tuple[int, ...], h: tuple[int, ...]) -> bool:
    return all(map(operator.ge, g, h))


def frobenius_colength(ideal: MonomialIdeal, q: int) -> int:
    """Number of lattice points outside the bracket power I^[q].

    The count equals q^n * lambda(R/I), because Frobenius is flat on a
    regular ring (Kunz 1969).  For monomials: write a = q*b + r with
    0 <= r_i < q; then a dominates q*g exactly when b dominates g, so
    x^a lies outside I^[q] exactly when x^b lies outside I, and each such
    b has q^n residues r.

    lambda(R/I) is the sum over the prefixes p in prod_{i<n} [0, c_i) of
    T(p) = min(c_n, g_n for the generators g with g_i <= p_i for i < n).
    Each generator writes g_n at its own prefix (the pure powers of
    x_1..x_{n-1} lie outside the box; a minimal list has one generator a
    prefix), and one prefix-minimum pass per axis of length >= 2 makes T:
    O(rows * passes), whatever q and the generator count.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    box = ideal.pure_power_exponents()
    rows = prod(box[:-1])
    if rows > _MAX_SCAN_ROWS:
        raise ValueError(f"the staircase scan needs {rows} rows, more than {_MAX_SCAN_ROWS}")
    return q**ideal.num_vars * _staircase_colength(box, ideal.generators)


def _staircase_colength(box: tuple[int, ...], generators: Sequence[tuple[int, ...]]) -> int:
    *heads, last = box
    thresholds = [last] * prod(heads)
    strides = [prod(heads[i + 1 :]) for i in range(len(heads))]
    for g in generators:
        if all(map(operator.lt, g, heads)):
            thresholds[sum(map(operator.mul, g, strides))] = g[-1]
    for c in heads:
        if c > 1:
            thresholds = _min_pass(thresholds, c)
    return sum(thresholds)


def _min_pass(t: list[int], c: int) -> list[int]:
    """Prefix minimum of row-major t along its first axis (length c), moved last for the next pass."""
    s = len(t) // c
    out = [0] * len(t)
    row = t[:s]
    for j in range(c):
        row = [a if a < b else b for a, b in zip(t[j * s : j * s + s], row)]
        out[j::c] = row
    return out


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
            row = tuple(int(tok) for tok in line.split())
        except ValueError as exc:
            raise ValueError(f"line {lineno}: expected space-separated integers, got {raw!r}") from exc
        if rows and len(row) != len(rows[0]):
            raise ValueError(f"line {lineno}: generator {row} does not have {len(rows[0])} exponents")
        rows.append(row)
    if not rows:
        raise ValueError("no generators found")
    return MonomialIdeal(num_vars=len(rows[0]), generators=tuple(rows))
