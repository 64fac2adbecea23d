"""Lower-bound engine for Hilbert-Kunz multiplicities.

All bounds are exact rationals.  The central inequality is the volume
bound

    e_HK >= e * (v_s - sum_i v_{s - t_i})

for a ring of dimension d and multiplicity e, where v is the hypercube
slab volume, s >= 0 is a rational slice parameter, and the t_i are
valuations of the generators counted against a minimal reduction (all
t_i = 1 in the uniform case with generator count r).  The uniform case
is evaluated as ``e * (N_s - r N_{s-1}) / D`` over the one denominator D
of v_s and v_{s-1}, as the interval certificate is.  On top of it sit:

* interval certification: with r = e - 2 the bound becomes the quadratic
  G(e) = e (v_s - (e-2) v_{s-1}) in e, a downward parabola, so an entire
  integer range [a, b] of multiplicities is bounded below by
  min(G(a), G(b)) wherever its apex lies; both endpoints and the apex
  are compared as integer numerators over the one denominator of v_s
  and v_{s-1};
* closed forms for the quadric hypersurface x_0^2 + ... + x_d^2 in
  characteristic p for d in {5, 6};
* the closed form of the recursion across degree-n radical ring
  extensions, and the bounds it gives that depend only on the dimension.

Every function returns exact values, never text; comparing a bound with
a target and writing it out are left to the caller that reports them.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import ceil, factorial
from typing import NamedTuple, Optional, Sequence

from .rationals import Rational, _at_most, _check_printable, _exact, _integer, _items
from .slab import _dimension, _grid_numerators, _slab_numerator, _slab_ratios

__all__ = [
    "IntervalCertRow",
    "certify_interval",
    "fixed_dimension_bound",
    "optimize_slice",
    "quadric_ehk",
    "radical_recursion_bound",
    "volume_lower_bound",
]


# Cost cap on the distinct valuations of volume_lower_bound, one volume each.
# 999 distinct valuations (1/2 ... 1/1000) at d 8, s 4 took 0.04 s and gave an
# 11504-bit denominator, 2999 took 0.27 s; `bound --t` with 14998 of them
# worked 5.65 s and then failed at the int-to-str limit.
_MAX_VALUATIONS = 1000

def volume_lower_bound(
    d: int,
    e: Rational,
    s: Rational,
    r: Optional[int] = None,
    valuations: Optional[Sequence[Rational]] = None,
) -> Fraction:
    """Exact value of ``e * (v_s - sum_i v_{s - t_i})``.

    May be <= 0 (a vacuous bound); the caller decides usefulness.
    Volumes at negative index are 0 by definition.  The uniform form
    (generator count r) is evaluated as the interval certificate is:
    ``e * (N_s - r N_{s-1}) / D`` over the one denominator D of v_s and
    v_{s-1} (only N_s / D for r = 0).  Equal valuations are grouped, so
    the sum is taken as ``sum_t count(t) * v_{s-t}`` with one volume per
    distinct t.  Raises ValueError, before any volume is evaluated, for
    more than ``_MAX_VALUATIONS`` distinct t and when the sizes of the
    volumes it evaluates, those at 0 < s - t < d, sum past the slab work
    budget (``slab._MAX_SLAB_BITS``, checked by ``slab._slab_ratios``).
    """
    d, e, s = _dimension(d), _exact("e", e, 1), _exact("s", s, 0)
    if (r is None) == (valuations is None):
        raise ValueError("exactly one of r / valuations is required")
    if valuations is None:
        r = _integer("r", r, 0)
        if not r:  # v_{s-1} is not needed, so its size is not counted
            return e * Fraction(*_slab_ratios(d, (s.numerator, s.denominator))[0])
        n_s, n_prev, den = _uniform_ratio(d, s)
        return e * Fraction(n_s - r * n_prev, den)
    counts = Counter(_exact("valuations", t) for t in _items("valuations", valuations))
    if any(t <= 0 for t in counts):
        raise ValueError("valuations must be positive")
    _at_most("number of distinct valuations", len(counts), _MAX_VALUATIONS)
    points = ((x.numerator, x.denominator) for x in (s, *(s - t for t in counts)))
    v_s, *shifted = (Fraction(n, den) for n, den in _slab_ratios(d, *points))
    return e * (v_s - sum(count * v for count, v in zip(counts.values(), shifted)))


def _uniform_ratio(d: int, s: Fraction) -> tuple[int, int, int]:
    """(N_s, N_{s-1}, D) with v_s = N_s / D and v_{s-1} = N_{s-1} / D, for s >= 0.

    With s = a/b, D = d! b^d, or D = 1 for s >= d + 1, where both volumes
    are 1; one ``_slab_ratios`` call for the pair.
    """
    a, b = s.numerator, s.denominator
    (n_s, den), (n_prev, den_prev) = _slab_ratios(d, (a, b), (a - b, b))
    if den < den_prev:  # d <= s < d + 1: v_s = 1 came as (1, 1)
        n_s = den = den_prev
    return n_s, n_prev, den


# Cost caps on optimize_slice.  The points cap is the largest d * grid_resolution
# it scans, 1250 times the largest bench `search` cell (d * grid_resolution = 800).
# The work grows about like d^2 * (d * grid_resolution), so the points cap alone
# would admit far costlier calls.  The work cap admits d 100 / res 1000, which
# takes 0.44-0.51 s CPU and peaks at 49 MB in its process (Python 3.11, 2-core
# x86-64), and nothing costlier.
_MAX_GRID_STEPS = 10**6
_MAX_GRID_WORK = 10**9


def optimize_slice(d: int, e: Rational, r: int, grid_resolution: int) -> tuple[Fraction, Fraction]:
    """Maximiser s of the uniform volume bound over {j / (256 * grid_resolution)}, and its bound.

    Scans the grid {k/grid_resolution : grid_resolution <= k <= d*grid_resolution},
    then 8 halving rounds on the fine lattice {j/D : 0 <= j <= d*D}: each
    compares the two points (j - step)/D and (j + step)/D, step = 128, 64,
    ..., 1, next to the best point j/D so far, and moves only to a strictly
    better one.  The bound rises and then falls in s, because the
    Irwin-Hall density is log-concave, so the grid's first maximum and the
    halvings return the maximiser of the bound over the whole fine lattice;
    when two neighbours tie, the even j, since the halvings move in even
    steps until the last one.  An exhaustive argmax agreed on all 2904
    inputs of d 1-6, resolution 2-12, r in {0, ..., 39, 127, 255, 511, 1023},
    its 8 ties included.  Every evaluation is exact, so the returned bound
    is always valid.

    A candidate j/D scores N_j - r * N_{j-D}, where v_{j/D} = N_j / (d! D^d)
    and N_j = 0 for j < 0: with one denominator and the checked e >= 1 > 0,
    comparing scores is exact, and the strict ``>`` keeps the first maximum.
    The grid scan starts at s = 1, where v_{s-1} first enters the bound: for
    k <= grid_resolution the score is N_k alone, which rises strictly up to
    k = grid_resolution, so no earlier grid point is the first maximum.
    The grid numerators come at once from ``_grid_numerators`` (powers up
    to d*grid_resolution/2, the rest by the slab symmetry), scaled to D by
    ``<< 8*d``.  Each halving point is one ``_slab_numerator(d, j, D, r)``
    call, the folded sum of (-1)^n (C(d, n) + r C(d, n-1)) (j - nD)^d over
    n <= min(floor(j/D), d + 1): one power per term, not one for each of
    N_j and N_{j-D}.

    Raises ValueError, before any grid is built, when d * grid_resolution
    exceeds ``_MAX_GRID_STEPS`` or d^3 * grid_resolution exceeds
    ``_MAX_GRID_WORK``.
    """
    d, grid_resolution = _dimension(d), _integer("grid_resolution", grid_resolution, 2)
    _at_most("dimension * grid_resolution", d * grid_resolution, _MAX_GRID_STEPS)
    _at_most("dimension**3 * grid_resolution", d**3 * grid_resolution, _MAX_GRID_WORK)
    e, r = _exact("e", e, 1), _integer("r", r, 0)
    numerators = _grid_numerators(d, grid_resolution)
    best_k, best_score = 0, 0
    for k in range(grid_resolution, len(numerators)):
        score = numerators[k] - r * numerators[k - grid_resolution]
        if score > best_score:
            best_k, best_score = k, score
    fine = 256 * grid_resolution
    best_j, best_score = best_k << 8, best_score << 8 * d
    for step in (128, 64, 32, 16, 8, 4, 2, 1):
        for j in (best_j - step, best_j + step):
            if 0 <= j <= d * fine:
                score = _slab_numerator(d, j, fine, r)
                if score > best_score:
                    best_j, best_score = j, score
    return Fraction(best_j, fine), e * Fraction(best_score, factorial(d) * fine**d)


# Miller-Rabin with the first 12 prime bases is deterministic below
# psi_12 = 318665857834031151167461 (Sorenson and Webster, Math. Comp. 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MILLER_RABIN_LIMIT = 318665857834031151167461


def _is_odd_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test; raises ValueError for odd p >= psi_12."""
    if p < 3 or p % 2 == 0:
        return False
    if p in _MILLER_RABIN_BASES:
        return True
    _at_most("p", p, _MILLER_RABIN_LIMIT - 1)
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for base in _MILLER_RABIN_BASES:
        x = pow(base, odd, p)
        if x == 1 or x == p - 1:
            continue
        # No more squarings: a^(p-1) = -1 (mod p) fails for odd p > 1, as each prime q | p would need 2^(twos+1) | q - 1.
        for _ in range(twos - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def quadric_ehk(p: int, d: int) -> Fraction:
    """Hilbert-Kunz multiplicity of the quadric hypersurface in d+1 variables.

    Closed forms, valid for odd primes p:

        d = 5:  (17 p^2 + 12) / (15 p^2 + 10)
        d = 6:  (781 p^4 + 656 p^2 + 315) / (720 p^4 + 570 p^2 + 270)
    """
    p, d = _integer("p", p), _integer("d", d)
    if not _is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if d == 5:
        return Fraction(17 * p**2 + 12, 15 * p**2 + 10)
    if d == 6:
        return Fraction(781 * p**4 + 656 * p**2 + 315, 720 * p**4 + 570 * p**2 + 270)
    raise ValueError(f"unsupported dimension {d} (closed forms exist for d in {{5, 6}})")


class IntervalCertRow(NamedTuple):
    """G(e) at both ends of [e_low, e_high], its apex (None: v_{s-1} = 0) and the apex's place."""

    apex: Optional[Fraction]
    g_low: Fraction
    g_high: Fraction
    branch: str

    @property
    def certified_bound(self) -> Fraction:
        """A lower bound of G at every integer of the interval: G is concave, its e^2 term -v_{s-1} <= 0."""
        return min(self.g_low, self.g_high)


def certify_interval(d: int, e_low: int, e_high: int, s: Rational) -> IntervalCertRow:
    """G(e_low), G(e_high) and the apex of G(e) = e (v_s - (e-2) v_{s-1}).

    The branch places the apex (v_s + 2 v_{s-1}) / (2 v_{s-1}) of the concave
    G against [e_low, e_high]: left of it (G decreasing, G(e_high) is the
    minimum), right of it (G increasing, G(e_low)) or inside it (either); or
    v_{s-1} = 0 and G is a line of slope v_s >= 0 (G(e_low)).

    With s = a/b, v_s = N_s / D and v_{s-1} = N_{s-1} / D share the
    denominator D = d! b^d (D = 1 for s >= d + 1, where both are 1), from
    ``_uniform_ratio``.  G(e) is e (N_s - (e-2) N_{s-1}) / D, and
    the apex is placed by comparing e * 2 N_{s-1} with N_s + 2 N_{s-1}.
    """
    e_low = _integer("e_low", e_low, 1)
    e_high, s = _integer("e_high", e_high, e_low), _exact("s", s, 0)
    n_s, n_prev, den = _uniform_ratio(_dimension(d), s)
    g_low, g_high = (Fraction(e * (n_s - (e - 2) * n_prev), den) for e in (e_low, e_high))
    top, bottom = n_s + 2 * n_prev, 2 * n_prev
    if not bottom:
        branch = "degenerate-linear-increasing"
    elif e_low * bottom <= top <= e_high * bottom:
        branch = "apex-interior"
    else:
        branch = "increasing" if top > e_high * bottom else "decreasing"
    return IntervalCertRow(Fraction(top, bottom) if bottom else None, g_low, g_high, branch)


def radical_recursion_bound(d: int, e: Rational, k: int, n: int, iterations: int) -> Fraction:
    """Closed form of the iterated radical-extension recursion.

    ``k`` is the embedding codimension, ``n`` the root degree of each
    extension, and ``iterations`` the number of contraction steps applied
    to the base bound (the recursion depth).  The extension's field degree
    is taken equal to n, the case in which the closed form is derived:

        k = e - 2:  1 + ((e-2)/(en-2))**iterations * (e/2 - 1)
        k < e - 2:  1 + ((k+1)/((n-1)e+k+1))**iterations * (1/d)

    The base values e/2 and 1 + 1/d are the bounds available at the first
    non-F-regular stage of the extension tower.  Raises ValueError, before
    the power is formed, for a bound that provably cannot print (its
    denominator past the print budget of ``rationals.format_rational``).
    """
    base, start = _radical_terms(d, e, k, n, iterations)
    return 1 + base**iterations * start


def _radical_terms(d: int, e: Rational, k: int, n: int, iterations: int) -> tuple[Fraction, Fraction]:
    """The checked (base, start) of ``radical_recursion_bound``, before the power.

    With base = a/b in lowest terms, the bound's denominator is at least
    b**iterations / numerator(start) > 2**bits for the bits checked below.
    base is in (0, 1), so b >= 2, and a power that the check admits has
    fewer than 2 * (L + bit length of numerator(start)) bits, L the bit
    length of 10**rationals._MAX_DIGITS.
    """
    d, e = _integer("d", d, 2), _integer("e", e, 6)
    k, n, iterations = _integer("k", k, 3, e - 2), _integer("n", n, 2), _integer("iterations", iterations, 0)
    if k == e - 2:
        base, start = Fraction(e - 2, e * n - 2), Fraction(e, 2) - 1
    else:
        base, start = Fraction(k + 1, (n - 1) * e + k + 1), Fraction(1, d)
    _check_printable(iterations * (base.denominator.bit_length() - 1) - start.numerator.bit_length())
    return base, start


def fixed_dimension_bound(d: int, e: Rational, case: str) -> Fraction:
    """Dimension-only lower bound for Gorenstein F-regular non-complete-intersections.

    For e >= d! + 1 the bound 1 + 1/d! applies directly.  Otherwise it is
    d steps of ``radical_recursion_bound``: ``minimal_gap`` (maximal
    codimension) from the base e/2 at e = 6, k = 4, n = ceil(d/2), and
    ``general`` from the base 1 + 1/d at e = d!, k = 3, n = ceil(d/3) + 1.
    The paper's abstract does not settle which n the paper means.
    Raises ValueError for d above ``_MAX_DIM`` and, as
    ``radical_recursion_bound`` does, for a bound that provably cannot
    print: ``general`` with e <= d! from d = 57 on.
    """
    if case not in ("minimal_gap", "general"):
        raise ValueError(f"case must be 'minimal_gap' or 'general', got {case!r}")
    d, e = _dimension(d, 2), _integer("e", e, 6)
    if e >= factorial(d) + 1:
        return 1 + Fraction(1, factorial(d))
    if case == "minimal_gap":
        return radical_recursion_bound(d, 6, 4, ceil(Fraction(d, 2)), d)
    return radical_recursion_bound(d, factorial(d), 3, ceil(Fraction(d, 3)) + 1, d)
