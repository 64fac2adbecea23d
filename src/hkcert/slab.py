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
integers.  One table of powers P_j = j^d, j <= h = floor(d*b/2), gives
the lower half of that grid: N_k is P_k plus the shifted terms
(-1)^m C(d,m) P_{k-mb} for 1 <= m <= k/b, so floor(d/2) weighted shifted
adds fill N_0, ..., N_h.  The distribution is symmetric about d/2,
v_{d-s} = 1 - v_s, so the upper half is N_{d*b-k} = d! b^d - N_k.
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
