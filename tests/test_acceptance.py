"""Acceptance suite: one check per shipped guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-check
lines.  The table checks compare the quoted display values of the dim-5
and dim-6 tables with the exact values at their printed precision: a
quoted ``k``-place display is correct when it is the truncation (toward
minus infinity) or the half-up rounding of the exact value to ``k``
places.  Only truncations are lower bounds, so an enforced target must
be the truncation and must not exceed the exact value; a quoted display
is never used as a lower bound (see README, "Display conventions").
"""

import subprocess
import sys
import time
from fractions import Fraction
from math import factorial

import pytest

from hkcert.bounds import (
    certify_interval,
    fixed_dimension_bound,
    quadric_ehk,
    volume_lower_bound,
)
from hkcert.monomial import MonomialIdeal, frobenius_colength, mixed_colength
from hkcert.rationals import decimal_render, format_rational
from hkcert.series import zigzag_coeffs
from hkcert.slab import vol_slab
from hkcert.tables import DIM5_ROWS, DIM6_ROWS
from test_bounds import ODD_PRIMES_TO_97, radical_step_bound, radical_step_iterates
from test_cli import child_env
from test_slab import recurrence_vol_slab

# The paper's quoted values where they differ from the bundled rows'
# effective ones, by dimension and row name; each row's note says why.  The
# package holds only the effective values, so no quoted display can serve
# as a bound.
QUOTED = {
    (5, "18<=e<=34"): {"target": Fraction(1197, 1000)},
    (6, "296<=e<=786"): {"interval": (286, 786)},
    (6, "10<=e<=15"): {"interval": (10, 25), "s": Fraction(11, 5)},
}


def effective(row):
    """The values a bundled row enforces, under the field names of ``QUOTED``."""
    return {"target": row.target, "interval": (row.e_low, row.e_high), "s": row.s}


def quoted(dim, row, field):
    """The paper's quoted ``target``, ``interval`` or ``s`` of a row: the effective one unless ``QUOTED`` differs."""
    return QUOTED.get((dim, row.name), {}).get(field, effective(row)[field])


def _is_display(quoted: Fraction, exact: Fraction, places: int) -> bool:
    """Whether ``quoted`` is the ``places``-place truncation or half-up rounding of ``exact``.

    Integer floor division only, so the check does not rest on the
    package's own renderer.
    """
    scaled = exact * 10**places
    num, den = scaled.numerator, scaled.denominator
    truncated = num // den
    rounded = (2 * num + den) // (2 * den)
    return quoted * 10**places in (truncated, rounded)


def _truncated(x: Fraction, places: int) -> str:
    """``x`` truncated toward minus infinity to ``places`` decimal places, for a diagnostic."""
    scaled = x.numerator * 10**places // x.denominator
    whole, frac = divmod(abs(scaled), 10**places)
    return f"{'-' if scaled < 0 else ''}{whole}.{frac:0{places}d}"


def _finish(name: str, started: float, failures: list[str]) -> None:
    elapsed = time.perf_counter() - started
    status = "FAIL" if failures else "PASS"
    detail = "; ".join(failures)
    print(f"[{status}] {name} ({elapsed:.3f}s)" + (f": {detail}" if detail else ""))
    if failures:
        pytest.fail(f"{name}: {detail}", pytrace=False)


def test_series_thresholds():
    started = time.perf_counter()
    failures = []
    coeffs = zigzag_coeffs(6)
    expected = {3: Fraction(1, 3), 4: Fraction(5, 24), 5: Fraction(2, 15), 6: Fraction(61, 720)}
    thresholds = {3: Fraction(4, 3), 4: Fraction(29, 24), 5: Fraction(17, 15), 6: Fraction(781, 720)}
    for d, m in expected.items():
        if coeffs[d - 1] != m:
            failures.append(f"m_{d} = {coeffs[d - 1]} != {m}")
        if 1 + coeffs[d - 1] != thresholds[d]:
            failures.append(f"1 + m_{d} != {thresholds[d]}")
    _finish("series-thresholds", started, failures)


def test_multiplicity_five_dimension_seven_bound():
    started = time.perf_counter()
    failures = []
    bound = volume_lower_bound(7, 5, Fraction(83, 25), r=3)
    if not bound > Fraction(1112, 1000):
        failures.append(f"bound {bound} <= 1112/1000")
    _finish("mult5-dim7-bound", started, failures)


def test_dim5_table():
    started = time.perf_counter()
    failures = []
    for row in DIM5_ROWS:
        if row.kind == "large-e":
            if not Fraction(row.e_low, factorial(5)) > Fraction(17, 15):
                failures.append(f"{row.e_low}/120 <= 17/15")
            continue
        bound = volume_lower_bound(5, row.e_low, row.s, r=row.e_high - 2)
        exact = f"exact bound {format_rational(bound)} = {_truncated(bound, 6)}"
        # A 3-place display that does not exceed the bound is its truncation.
        if not bound >= row.target:
            failures.append(
                f"row {row.name}: {exact} < target {format_rational(row.target)} "
                f"(short by {format_rational(row.target - bound)})"
            )
        elif not _is_display(row.target, bound, 3):
            failures.append(
                f"row {row.name}: target {format_rational(row.target)} is not the 3-place "
                f"truncation of the {exact} (below it by {format_rational(bound - row.target)})"
            )
        quoted_target = quoted(5, row, "target")
        if not _is_display(quoted_target, bound, 3):
            failures.append(
                f"row {row.name}: quoted target {format_rational(quoted_target)} is neither the "
                f"3-place truncation nor the rounding of the {exact} "
                f"(off by {format_rational(quoted_target - bound)})"
            )
    _finish("dim5-table", started, failures)


def test_dim6_table():
    started = time.perf_counter()
    failures = []
    increasing = []
    for row in DIM6_ROWS:
        if row.kind == "large-e":
            if not Fraction(row.e_low, factorial(6)) > Fraction(781, 720):
                failures.append(f"{row.e_low}/720 <= 781/720")
            continue
        cert = certify_interval(6, row.e_low, row.e_high, row.s)
        if not cert.certified_bound >= row.target:
            failures.append(f"row {row.name}: certified {format_rational(cert.certified_bound)} < target")
        if cert.branch == "increasing":
            increasing.append((row, cert.apex))
            continue
        if cert.branch != "apex-interior":
            failures.append(f"row {row.name}: apex not interior ({cert.branch})")
        low, high = quoted(6, row, "interval")
        if cert.apex is None or not low <= cert.apex <= high:
            failures.append(f"row {row.name}: apex outside quoted interval [{low}, {high}]")
    if len(increasing) != 1:
        failures.append(f"expected one increasing row, got {[row.name for row, _ in increasing]}")
    for row, apex in increasing:
        assert apex is not None
        quoted_apex = Fraction(330857, 100)
        if not _is_display(quoted_apex, apex, 2):
            failures.append(
                f"apex at s={format_rational(row.s)} is exactly {format_rational(apex)} = "
                f"{_truncated(apex, 6)}; the quoted display {_truncated(quoted_apex, 2)} is neither "
                f"its 2-place truncation nor its rounding (off by {format_rational(quoted_apex - apex)})"
            )
        if not apex > row.e_high:
            failures.append(f"row {row.name}: apex {format_rational(apex)} is not right of {row.e_high}")
        if not volume_lower_bound(6, row.e_low, row.s, r=row.e_low - 2) > row.target:
            failures.append(f"row {row.name}: G({row.e_low}) does not exceed {format_rational(row.target)}")
    _finish("dim6-table", started, failures)


def test_quadric_closed_forms():
    started = time.perf_counter()
    failures = []
    for p in ODD_PRIMES_TO_97:
        if not quadric_ehk(p, 5) > Fraction(17, 15):
            failures.append(f"quadric d=5 p={p} below threshold")
        if not quadric_ehk(p, 6) > Fraction(781, 720):
            failures.append(f"quadric d=6 p={p} below threshold")
        if p >= 11 and not abs(quadric_ehk(p, 5) - Fraction(17, 15)) < Fraction(1, p * p):
            failures.append(f"quadric d=5 p={p} misses the 1/p^2 limit rate")
    _finish("quadric-closed-forms", started, failures)


def test_volume_oracle_equivalence():
    started = time.perf_counter()
    failures = []
    q = 32
    for d in (1, 2, 3):
        ideal = MonomialIdeal(d, tuple(tuple(int(i == j) for j in range(d)) for i in range(d)))
        for s in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
            estimate = Fraction(mixed_colength(ideal, s, q), q**d)
            error = abs(estimate - vol_slab(d, s))
            if not error <= Fraction(3 * d, q):
                failures.append(f"d={d} s={s}: |{estimate} - v_s| = {error} > {Fraction(3 * d, q)}")
    _finish("volume-oracle", started, failures)


def test_frobenius_exactness():
    started = time.perf_counter()
    failures = []
    square = MonomialIdeal(2, ((2, 0), (1, 1), (0, 2)))
    for q in (2, 3, 4, 8):
        if frobenius_colength(square, q) != 3 * q * q:
            failures.append(f"colength((x^2,xy,y^2), {q}) != 3q^2")
    boxes = [
        (MonomialIdeal(2, ((3, 0), (0, 2))), 6),
        (MonomialIdeal(3, ((2, 0, 0), (0, 2, 0), (0, 0, 3))), 12),
        (MonomialIdeal(1, ((4,),)), 4),
    ]
    for ideal, product in boxes:
        for q in (1, 2, 5):
            normalized = Fraction(frobenius_colength(ideal, q), q**ideal.num_vars)
            if normalized != product:
                failures.append(f"pure-power ideal {ideal.generators} at q={q}: {normalized} != {product}")
    _finish("frobenius-exactness", started, failures)


def test_slab_properties():
    started = time.perf_counter()
    failures = []
    for d in range(1, 9):
        previous = Fraction(0)
        for k in range(8 * d + 1):
            s = Fraction(k, 8)
            value = vol_slab(d, s)
            if value + vol_slab(d, d - s) != 1:
                failures.append(f"symmetry broken at d={d} s={s}")
            if value < previous:
                failures.append(f"monotonicity broken at d={d} s={s}")
            if value != recurrence_vol_slab(d, s):
                failures.append(f"Irwin-Hall recurrence disagrees at d={d} s={s}")
            previous = value
    _finish("slab-properties", started, failures)


def test_radical_recursion():
    started = time.perf_counter()
    failures = []
    bound = fixed_dimension_bound(4, 6, "minimal_gap")
    if bound != Fraction(657, 625) or decimal_render(bound) != "1.0512":
        failures.append(f"fixed-dimension bound at d=4 is {bound}, expected 657/625 = 1.0512")
    if radical_step_iterates(4, 6, 4, 2, 4)[-1] != Fraction(657, 625):
        failures.append("four one-step bounds from e/2 at d=4, e=6, k=4, n=2 do not give 657/625")
    if radical_step_bound(6, 4, 2, 2, 1) != 1:
        failures.append("maximal-codimension step does not fix 1")
    if radical_step_bound(6, 3, 2, 2, 1) != 1:
        failures.append("general step does not fix 1")
    _finish("radical-recursion", started, failures)


def test_cli_end_to_end():
    started = time.perf_counter()
    failures = []
    for dim in ("5", "6"):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "hkcert", "verify-tables", "--dim", dim],
                capture_output=True,
                text=True,
                env=child_env(),
            )
            for _ in range(2)
        ]
        for run in runs:
            if run.returncode != 0:
                failures.append(f"verify-tables --dim {dim} exited {run.returncode}")
        if runs[0].stdout != runs[1].stdout:
            failures.append(f"verify-tables --dim {dim} output is not byte-stable")
    _finish("cli-end-to-end", started, failures)
