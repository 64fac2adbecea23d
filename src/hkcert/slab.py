"""Exact volumes of hypercube slabs ``{x in [0,1]^d : sum(x) <= s}``.

The slab volume v_s is the distribution function of a sum of d
independent uniform [0,1] variables (Irwin-Hall).  Pointwise values use
the classical inclusion-exclusion finite sum

    v_s = sum_{n=0}^{floor(s)} (-1)^n (s-n)^d / (n! (d-n)!)

clamped to 0 for s <= 0 and to 1 for s >= d.  For s = a/b the sum is
evaluated as one integer numerator over the common denominator d! b^d,

    v_{a/b} = N / (d! b^d),   N = sum_{n=0}^{floor(a/b)} (-1)^n C(d,n) (a-nb)^d,

so a single ``Fraction`` is built per volume.  On a grid {k/b} all
numerators share that denominator, so volumes on one grid compare as
integers.  The whole grid needs no binomials or powers beyond k^d: with
the shift (S^b N)_k = N_{k-b} (zero for k < b), the numerators are the
d-th b-step backward difference of the truncated power (the cardinal
B-spline identity, Schoenberg 1946),

    N = (1 - S^b)^d k_+^d,   k = 0, ..., d*b,

which expands to the same inclusion-exclusion sum, in d passes of
integer subtractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .rationals import Rational

__all__ = ["vol_slab"]


# Dimension ceiling for every slab volume and for the dimension-only radical
# bounds.  At d = 512 the worst volume bound took 0.04 s and
# fixed_dimension_bound(d, 6, "general") 0.21 s; at d = 1024, 0.23 s and 2.0 s.
_MAX_DIM = 512


def vol_slab(d: int, s: Rational) -> Fraction:
    """Exact volume of ``{x in [0,1]^d : x_1 + ... + x_d <= s}``.

    Total in s: returns 0 for s <= 0 and 1 for s >= d, so shifted
    evaluations like v_{s-t} with s < t are well defined.  Raises
    ValueError for d above ``_MAX_DIM``.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if d > _MAX_DIM:
        raise ValueError(f"dimension must be <= {_MAX_DIM}, got {d}")
    s = Fraction(s)
    if s <= 0:
        return Fraction(0)
    if s >= d:
        return Fraction(1)
    b = s.denominator
    return Fraction(_slab_numerator(d, s.numerator, b), factorial(d) * b**d)


def _slab_numerator(d: int, a: int, b: int) -> int:
    """Integer N with v_{a/b} = N / (d! b^d), for b >= 1 and 0 <= a <= d*b.

    a/b need not be in lowest terms, so the volumes on a grid {k/b} all
    come over the one denominator d! b^d.
    """
    total = 0
    for n in range(a // b + 1):
        term = comb(d, n) * (a - n * b) ** d
        total += -term if n % 2 else term
    return total


def _grid_numerators(d: int, b: int) -> list[int]:
    """[N_0, ..., N_{d*b}] with v_{k/b} = N_k / (d! b^d), for d >= 1 and b >= 1.

    Starts from k^d and applies the b-step backward difference d times;
    equal to ``_slab_numerator(d, k, b)`` for every k.
    """
    n = [k**d for k in range(d * b + 1)]
    for _ in range(d):
        n[b:] = [x - y for x, y in zip(n[b:], n)]
    return n
