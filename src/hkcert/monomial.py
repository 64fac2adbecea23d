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
scan still visits every row of the q-scaled box, so its cost grows like
q^(n-1), but tallies the rows by floor sum in C iterators.

The ``_MAX_*`` caps below refuse oversized input with ValueError before
any work starts, and a colength that provably cannot print is refused
before its power q^n is formed.  The test suite keeps second paths for
each count (see the two docstrings below) and for the minimalization.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from fractions import Fraction
from math import floor, prod
from typing import NamedTuple, Sequence

from .rationals import Rational, _at_most, _check_printable, _exact, _integer, _items, _parse_integer

__all__ = [
    "ColengthEntry",
    "ColengthSequence",
    "MonomialIdeal",
    "ehk_estimate",
    "frobenius_colength",
    "mixed_colength",
    "parse_generators",
]


# Row cap for both counts, the most a desk-scale command should visit
# before it answers.  At 10**6 rows (Python 3.11, 2-core x86-64) the mixed
# scan takes 0.10-0.21 s over 2-6 prefix axes and 0.43-0.55 s over one,
# where its tally holds up to 10**6 distinct floor sums (peak RSS 134 MB
# at q = 10**6).  The staircase sweep takes 0.09-0.76 s there, whatever
# the generators (best of 3): 0.09 s in 2 passes over axes of 1000, 0.37 s
# in 19 passes over axes of 2 and 3, 0.76 s in one pass over an axis of
# 10**6.
_MAX_SCAN_ROWS = 10**6
# Minimalizing tests each generator against those already kept, one
# _dominates call a pair of up to n steps, about 0.2 us a call and 25 ns a
# step (same machine, best of 3): the 2-variable staircase (i, 999 - i)
# takes 0.11 s (499500 calls), one pure square per variable 0.51 s at 400
# variables, and 1000 generators in 100 variables, 900 of them
# (k, ..., k, 900 - k) beside the pure powers x_i^1000, so that almost
# every pair is compared in full, 1.3 s (4.5 * 10**7 steps).
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

    def __new__(cls, num_vars: int, generators: Sequence[Sequence[int]]) -> MonomialIdeal:
        num_vars, generators = _integer("num_vars", num_vars, 1), _items("generators", generators)
        count = _at_most("number of generators", len(generators), _MAX_GENERATORS)
        _at_most("generators**2 * num_vars", count**2 * num_vars, _MAX_MINIMALIZE_WORK)
        index = operator.index
        try:
            gens = [tuple(map(index, g)) for g in generators]
        except TypeError:
            raise ValueError("exponents must be integers") from None
        if not gens:
            raise ValueError("generator list must be non-empty")
        for g in gens:
            if len(g) != num_vars:
                raise ValueError(f"generator {g} does not have {num_vars} exponents")
            if min(g) < 0:
                raise ValueError(f"generator {g} has a negative exponent")
            if not any(g):
                raise ValueError("the unit monomial generates the whole ring")
        # A divisor precedes its multiples in lexicographic order, so testing
        # against the generators already kept is enough; a repeat is dominated
        # by its first copy.
        minimal: list[tuple[int, ...]] = []
        for g in sorted(gens):
            for h in minimal:
                if _dominates(g, h):
                    break
            else:
                minimal.append(g)
        powers = _pure_powers(num_vars, minimal)
        if 0 in powers:
            raise ValueError(f"not m-primary: no pure power of variable {powers.index(0)} among the generators")
        ideal = tuple.__new__(cls, (num_vars, tuple(minimal)))
        ideal._powers = powers
        return ideal

    @classmethod
    def _make(cls, iterable) -> MonomialIdeal:  # NamedTuple's own skips __new__ and its checks
        return cls(*iterable)

    def pure_power_exponents(self) -> tuple[int, ...]:
        """Exponent c_i of the pure power of each variable: the constructor's tuple, kept beside the fields."""
        return self._powers

    def is_parameter_ideal(self) -> bool:
        """True when the generators are exactly one pure power per variable."""
        return len(self.generators) == self.num_vars


def _pure_powers(num_vars: int, generators: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """Exponent c_i of the pure power of each variable (0 if none; a minimal list has at most one)."""
    powers = [0] * num_vars
    for g in generators:
        if g.count(0) == num_vars - 1:  # one nonzero exponent
            top = max(g)
            powers[g.index(top)] = top
    return tuple(powers)


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

    Raises ValueError, before the sweep, for a box of more than
    ``_MAX_SCAN_ROWS`` rows, and for a count that provably cannot print:
    it is at least q^n >= 2**((bit length of q - 1) * n).
    """
    q = _integer("q", q, 1)
    box = ideal.pure_power_exponents()
    _at_most("staircase scan rows", prod(box[:-1]), _MAX_SCAN_ROWS)
    _check_printable((q.bit_length() - 1) * ideal.num_vars)
    return q**ideal.num_vars * _staircase_colength(box, ideal.generators)


def _staircase_colength(box: tuple[int, ...], generators: Sequence[tuple[int, ...]]) -> int:
    *heads, last = box
    stride = prod(heads)
    thresholds = [last] * stride
    strides = []
    for c in heads:
        stride //= c
        strides.append(stride)
    lt, mul = operator.lt, operator.mul
    for g in generators:
        if all(map(lt, g, heads)):
            thresholds[sum(map(mul, g, strides))] = g[-1]
    for c in heads:
        if c > 1:
            thresholds = _min_pass(thresholds, c)
    return sum(thresholds)


def _min_pass(t: list[int], c: int) -> list[int]:
    """Prefix minimum of row-major t along its first axis (length c), moved last for the next pass."""
    s = len(t) // c
    out = [0] * len(t)
    row = t[:s]
    out[::c] = row
    for j in range(1, c):
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

    The scan (the test suite checks it against that closed form) tallies
    the prefixes of the first n-1 coordinates by their floor sum t, then
    adds min(q, m - t + 1) * c_n points along the last axis for each prefix
    with t <= m.  It visits every prefix, so its cost grows like q^(n-1).
    """
    q = _integer("q", q, 1)
    if not ideal.is_parameter_ideal():
        raise ValueError("mixed_colength requires a pure-power (parameter) ideal")
    cut = floor(_exact("s", s, 0) * q)
    if cut <= 0:
        return 0
    cs = ideal.pure_power_exponents()
    _at_most("mixed colength scan rows", prod(q * c for c in cs[:-1]), _MAX_SCAN_ROWS)
    budget = cut - 1
    # Each prefix axis as its lazy floors a // c_i (the bound method takes c
    # now, where a generator would read the loop's last c), and the rows
    # tallied by floor sum in C: at most (n-1)(q-1)+1 distinct totals.
    floors = [map(c.__rfloordiv__, range(q * c)) for c in cs[:-1]]
    totals = Counter(map(sum, itertools.product(*floors)))
    return cs[-1] * sum(rows * min(q, budget - total + 1) for total, rows in totals.items() if total <= budget)


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
    Raises ValueError, before any power q^n is formed, where the largest
    colength provably cannot print.
    """
    qs = [_integer("q", q, 1) for q in _items("q_list", q_list)]
    if not qs:
        raise ValueError("q_list must be non-empty")
    if any(map(operator.ge, qs, qs[1:])):
        raise ValueError("q_list must be strictly increasing")
    length = frobenius_colength(ideal, 1)
    n = ideal.num_vars
    _check_printable((qs[-1].bit_length() - 1) * n + length.bit_length() - 1)
    normalized = Fraction(length)
    return ColengthSequence(entries=tuple([ColengthEntry(q, q**n * length, normalized) for q in qs]))


def parse_generators(text: str) -> MonomialIdeal:
    """Parse the ideal file format: one generator per line, space-separated exponents.

    Blank lines and lines starting with '#' are ignored.  Each exponent is
    read by ``rationals._parse_integer``, so a digit run of more than
    ``rationals._MAX_DIGITS`` digits is refused whatever the interpreter's
    int-to-str limit.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = tuple(map(_parse_integer, line.split()))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if rows and len(row) != len(rows[0]):
            raise ValueError(f"line {lineno}: generator {row} does not have {len(rows[0])} exponents")
        rows.append(row)
    if not rows:
        raise ValueError("no generators found")
    return MonomialIdeal(num_vars=len(rows[0]), generators=tuple(rows))
