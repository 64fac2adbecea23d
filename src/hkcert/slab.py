"""Exact volumes of hypercube slabs ``{x in [0,1]^d : sum(x) <= s}``.

The slab volume v_s is the distribution function of a sum of d
independent uniform [0,1] variables (Irwin-Hall).  Pointwise values use
the classical inclusion-exclusion finite sum

    v_s = sum_{n=0}^{floor(s)} (-1)^n (s-n)^d / (n! (d-n)!)

clamped to 0 for s <= 0 and to 1 for s >= d.  For s = a/b the sum is
evaluated as one integer numerator over the common denominator d! b^d,

    v_{a/b} = N / (d! b^d),   N = sum_{n=0}^{floor(a/b)} (-1)^n C(d,n) (a-nb)^d,

so a single ``Fraction`` is built per volume.  One private entry,
``_slab_ratios(d, *points)``, evaluates every pointwise volume: for each
point (a, b) it returns the pair (N, d! b^d), or (0, 1) and (1, 1) where
s <= 0 or s >= d, so a clamped volume forms neither b^d nor a power.  It
owns the one work budget: it sizes each point once (``_slab_bits``) and
refuses a call whose sizes sum past ``_MAX_SLAB_BITS`` before any sum is
taken, after every caller has checked the dimension range with
``_dimension``.  The clamps are shortcuts only: the sum is
already 0 for a <= 0, and, with its terms capped at n <= d, it is
d! b^d for a >= d*b, the d-th difference of x^d.  On a
grid {k/b} all numerators share that denominator, so volumes on one grid
compare as integers.  One table of powers P_j = j^d, j <= h = floor(d*b/2),
gives the lower half of that grid: N_k is P_k plus the shifted terms
(-1)^m C(d,m) P_{k-mb} for 1 <= m <= k/b, so floor(d/2) weighted shifted
adds fill N_0, ..., N_h.  The distribution is symmetric about d/2,
v_{d-s} = 1 - v_s, so the upper half is N_{d*b-k} = d! b^d - N_k.

The uniform volume bound v_s - r v_{s-1} has the numerator N_a - r N_{a-b}
over the same denominator.  With m = n - 1 in the shifted sum both sums
run over the same powers, so ``_slab_numerator(d, a, b, r)`` takes the
difference as one sum, one power per term,

    N_a - r N_{a-b} = sum_{n=0}^{min(floor(a/b), d+1)} (-1)^n (C(d,n) + r C(d,n-1)) (a-nb)^d,

with C(d, -1) = C(d, d+1) = 0; r = 0 gives N_a itself, term by term.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .rationals import Rational, _at_most, _exact, _integer

__all__ = ["vol_slab"]


# Dimension ceiling for every slab volume and for the dimension-only radical
# bounds.  At d = 512 the worst volume bound took 0.04 s and
# fixed_dimension_bound(d, 6, "general") 0.21 s; at d = 1024, 0.23 s and 2.0 s.
_MAX_DIM = 512


def vol_slab(d: int, s: Rational) -> Fraction:
    """Exact volume of ``{x in [0,1]^d : x_1 + ... + x_d <= s}``.

    Total in s: returns 0 for s <= 0 and 1 for s >= d, so shifted
    evaluations like v_{s-t} with s < t are well defined.  Raises
    ValueError for d above ``_MAX_DIM`` and, for 0 < s < d, for an s
    too long to evaluate (its size past ``_MAX_SLAB_BITS``), and for an
    s that is not an int or a ``Fraction``.
    """
    d, s = _dimension(d), _exact("s", s)
    return Fraction(*_slab_ratios(d, (s.numerator, s.denominator))[0])


def _dimension(d: object, least: int = 1) -> int:
    """``d`` as an int in [least, ``_MAX_DIM``], else ValueError: the one dimension rule.

    Every caller of ``_slab_ratios`` checks its d here first.
    """
    return _integer("d", d, least, _MAX_DIM)


# The work budget of one _slab_ratios call: the summed size of its evaluated
# volumes, d times the bit length of max(a, b) for s = a/b, 0 < s < d, the
# size of b^d and of every power (a - n*b)^d.  The worst admitted call, one
# volume at d = 512, s = 511 - 1/2^247 (511 terms), took 0.69-0.79 s CPU
# (Python 3.11, 2-core x86-64); the uniform pair at s = 511 - 1/2^119 took
# 0.43-0.49 s.  Uncapped, `vol --dim 512` worked 75 s at 1.7 million bits
# (s = 511.0...01, 1000 digits) and then failed to print.
_MAX_SLAB_BITS = 2**17


def _slab_ratios(d: int, *points: tuple[int, int]) -> list[tuple[int, int]]:
    """(N, D) with v_{a/b} = N / D for each point (a, b), b >= 1 and any integer a.

    D = d! b^d where 0 < a/b < d; a clamped volume comes as (0, 1) or
    (1, 1), before b^d is formed.  Raises ValueError, before any sum or
    b^d, where the sizes of the points sum past ``_MAX_SLAB_BITS``.
    """
    sizes = [_slab_bits(d, a, b) for a, b in points]
    _at_most("summed slab sizes (dimension * bit length)", sum(sizes), _MAX_SLAB_BITS)
    return [(_slab_numerator(d, a, b), factorial(d) * b**d) if bits else (0, 1) if a <= 0 else (1, 1)
            for (a, b), bits in zip(points, sizes)]


def _slab_bits(d: int, a: int, b: int) -> int:
    """d * bit length of max(a, b), the size of the sum for v_{a/b}; 0 where v_{a/b} is clamped."""
    if a <= 0 or a >= d * b:
        return 0
    return d * max(a, b).bit_length()


def _slab_numerator(d: int, a: int, b: int, r: int = 0) -> int:
    """N_a - r * N_{a-b}, where v_{a/b} = N_a / (d! b^d), for b >= 1, any integer a and r >= 0.

    a/b need not be in lowest terms, so the volumes on a grid {k/b} all
    come over the one denominator d! b^d.  Term n weighs the one power
    (a - n*b)^d by C(d, n) + r * C(d, n-1), the fold in the module
    docstring; N is 0 at a negative index.  The terms stop at n = d + 1,
    or at n = d for r = 0, so the pointwise sum computes no binomial
    beyond its own: a >= d*b gives d! b^d after d + 1 terms.
    """
    total, previous = 0, 0  # previous: C(d, n-1), 0 at n = 0
    for n in range(min(a // b, d + 1 if r else d) + 1):
        c = comb(d, n)
        term = (c + r * previous) * (a - n * b) ** d
        total += -term if n % 2 else term
        previous = c
    return total


def _grid_numerators(d: int, b: int) -> list[int]:
    """[N_0, ..., N_{d*b}] with v_{k/b} = N_k / (d! b^d), for d >= 1 and b >= 1.

    Equal to ``_slab_numerator(d, k, b)`` for every k: the lower half by
    shifted adds over one power table, the upper half by the symmetry.
    """
    half = d * b // 2
    powers = [k**d for k in range(half + 1)]
    n = powers[:]
    for m in range(1, half // b + 1):
        c = -comb(d, m) if m % 2 else comb(d, m)
        n[m * b:] = [x + c * y for x, y in zip(n[m * b:], powers)]
    full = factorial(d) * b**d
    return n + [full - x for x in reversed(n[: d * b - half])]
