"""Bundled certification tables for dimensions 5 and 6.

Each table proves the conjectured threshold 1 + m_d for every
multiplicity e >= 5 by splitting the multiplicity axis into ranges:

* a large-e branch, where e_HK >= e/d! already beats the threshold;
* volume-bound rows e_0 * (v_s - r_0 * v_{s-1}) valid for e_0 <= e and
  r <= r_0 (dimension 5);
* quadratic rows certified over integer intervals by the apex analysis
  of G(e) = e (v_s - (e-2) v_{s-1}) (dimension 6).

Every row records a quoted display target alongside the effective exact
target.  Displayed bounds in this package are truncations, never
roundings, so a quoted value that would overstate the recomputed exact
bound is replaced by its truncated rendering and the substitution is
recorded in the row notes.  Rows are computed serially in table order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Optional

from . import __version__
from .bounds import certify_interval, volume_lower_bound
from .rationals import decimal_render, format_rational
from .report import CertificationReport, ReportRow
from .series import conjecture_threshold

__all__ = [
    "ApexIntervalRow",
    "DIM5_ROWS",
    "DIM6_ROWS",
    "VolumeBoundRow",
    "verify_tables",
]


@dataclass(frozen=True)
class VolumeBoundRow:
    """Dimension-5 style row: bound e_0 (v_s - r_0 v_{s-1}) over a range of e."""

    name: str
    e0: int
    r0: int
    s: Fraction
    target: Fraction
    quoted_target: Fraction
    note: str = ""


@dataclass(frozen=True)
class ApexIntervalRow:
    """Dimension-6 style row: interval certification of G(e) on [e_low, e_high]."""

    name: str
    e_low: int
    e_high: int
    s: Fraction
    target: Fraction
    quoted_interval: tuple[int, int]
    quoted_s: Fraction
    note: str = ""


# The quoted target 1.197 of the second row rounds up from the exact
# bound 1196997/1000000; the effective target is its truncation, which
# keeps every displayed target a valid lower bound.
DIM5_ROWS: tuple[VolumeBoundRow, ...] = (
    VolumeBoundRow("35<=e<=136", 35, 134, Fraction(7, 5), Fraction(1153, 1000), Fraction(1153, 1000)),
    VolumeBoundRow(
        "18<=e<=34",
        18,
        32,
        Fraction(17, 10),
        Fraction(1196, 1000),
        Fraction(1197, 1000),
        note=(
            "quoted target 1.197 rounds up from the exact bound 1196997/1000000; "
            "effective target 1.196 is its truncated display"
        ),
    ),
    VolumeBoundRow("11<=e<=17", 11, 15, Fraction(19, 10), Fraction(1187, 1000), Fraction(1187, 1000)),
    VolumeBoundRow("7<=e<=10", 7, 8, Fraction(21, 10), Fraction(1161, 1000), Fraction(1161, 1000)),
    VolumeBoundRow("5<=e<=6", 5, 4, Fraction(12, 5), Fraction(1313, 1000), Fraction(1313, 1000)),
)

# The fourth quoted row ([10, 25] at s = 2.2) is inconsistent: its apex
# 16.98... is interior but min(G(10), G(25)) = 0.9304... misses the
# 1.118 target, and s = 2.2 contradicts the quoted apex 13.3.  Endpoints
# [10, 15] with s = 2.3 reproduce that apex and certify via G(10); the
# quoted upper endpoint also overlaps the [16, 25] row.
DIM6_ROWS: tuple[ApexIntervalRow, ...] = (
    ApexIntervalRow("59<=e<=296", 59, 296, Fraction(8, 5), Fraction(1133, 1000), (59, 296), Fraction(8, 5)),
    ApexIntervalRow("26<=e<=58", 26, 58, Fraction(19, 10), Fraction(1123, 1000), (26, 58), Fraction(19, 10)),
    ApexIntervalRow("16<=e<=25", 16, 25, Fraction(21, 10), Fraction(1118, 1000), (16, 25), Fraction(21, 10)),
    ApexIntervalRow(
        "10<=e<=15",
        10,
        15,
        Fraction(23, 10),
        Fraction(1118, 1000),
        (10, 25),
        Fraction(11, 5),
        note=(
            "quoted row ([10, 25], s = 11/5) is inconsistent: apex 16.98 is interior but "
            "min(G(10), G(25)) = 0.9304 misses 1.118, s = 11/5 contradicts the quoted apex 13.3, "
            "and the interval overlaps row 16<=e<=25; endpoints [10, 15] with s = 23/10 "
            "reproduce apex 13.34 and certify via G(10)"
        ),
    ),
    ApexIntervalRow("5<=e<=9", 5, 9, Fraction(13, 5), Fraction(1107, 1000), (5, 9), Fraction(13, 5)),
)


def _threshold_note(bound: Fraction, threshold: Fraction, extra: str = "") -> str:
    verdict = "yes" if bound > threshold else "no"
    note = f"exceeds conjectured threshold {format_rational(threshold)}: {verdict}"
    return f"{note}; {extra}" if extra else note


def _volume_row(d: int, row: VolumeBoundRow, threshold: Fraction) -> ReportRow:
    bound = volume_lower_bound(d, row.e0, row.s, r=row.r0)
    return ReportRow(
        name=row.name,
        inputs=f"d={d} e0={row.e0} r0={row.r0} s={format_rational(row.s)}",
        exact_bound=bound,
        target=row.target,
        passed=bound >= row.target,
        notes=_threshold_note(bound, threshold, row.note),
    )


def _apex_row(d: int, row: ApexIntervalRow, threshold: Fraction) -> ReportRow:
    cert = certify_interval(d, row.e_low, row.e_high, row.s, row.target)
    return ReportRow(
        name=row.name,
        inputs=f"d={d} a={row.e_low} b={row.e_high} s={format_rational(row.s)}",
        exact_bound=cert.certified_bound,
        target=row.target,
        passed=cert.passed,
        notes=_threshold_note(cert.certified_bound, threshold, f"{cert.branch}: {cert.notes}"
                              + (f"; {row.note}" if row.note else "")),
    )


def _large_e_row(d: int, e_min: int, threshold: Fraction, extra: str = "") -> ReportRow:
    bound = Fraction(e_min, factorial(d))
    return ReportRow(
        name=f"e>={e_min}",
        inputs=f"d={d} e>={e_min}",
        exact_bound=bound,
        target=threshold,
        passed=bound >= threshold,
        notes=_threshold_note(bound, threshold, f"e_HK >= e/d! >= {e_min}/{factorial(d)}"
                              + (f"; {extra}" if extra else "")),
    )


def _increasing_row(threshold: Fraction) -> ReportRow:
    target = Fraction(189, 100)
    cert = certify_interval(6, 296, 786, Fraction(13, 10), target)
    apex = cert.apex
    assert apex is not None
    return ReportRow(
        name="296<=e<=786",
        inputs="d=6 a=296 b=786 s=13/10",
        exact_bound=cert.certified_bound,
        target=target,
        passed=cert.passed,
        notes=_threshold_note(
            cert.certified_bound,
            threshold,
            f"{cert.branch}: apex {format_rational(apex)} = {decimal_render(apex, 4)} > 786, "
            f"so G increases on the interval and G(296) certifies; the quoted apex display "
            f"3308.57 rounds up from the exact value (truncation: 3308.56); the increasing "
            f"interval is sometimes quoted as [286, 786], endpoints [296, 786] used",
        ),
    )


def verify_tables(dim: int, command: Optional[str] = None) -> CertificationReport:
    """Recompute and certify every row of the bundled table for ``dim``."""
    if dim == 5:
        threshold = conjecture_threshold(5)
        rows = [_large_e_row(5, 137, threshold)]
        rows += [_volume_row(5, row, threshold) for row in DIM5_ROWS]
    elif dim == 6:
        threshold = conjecture_threshold(6)
        rows = [
            _large_e_row(
                6, 786, threshold,
                extra="large-e threshold quoted as 786/720 while the conjectured constant is 781/720; "
                      "786/720 exceeds both",
            ),
            _increasing_row(threshold),
        ]
        rows += [_apex_row(6, row, threshold) for row in DIM6_ROWS]
    else:
        raise ValueError(f"tables exist for dimensions 5 and 6, got {dim}")
    return CertificationReport(
        tool_version=__version__,
        command=command or f"verify-tables --dim {dim}",
        rows=tuple(rows),
    )
