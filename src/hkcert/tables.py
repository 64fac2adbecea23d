"""Bundled certification tables for dimensions 5 and 6.

Each table proves the conjectured threshold 1 + m_d for every
multiplicity e >= 5 by splitting the multiplicity axis into ranges.  A
table is a tuple of ``TableRow`` entries, evaluated in table order by one
evaluator; a row's ``kind`` names its certificate:

* ``large-e``: e >= e_low, where e_HK >= e/d! >= e_low/d! already beats
  the threshold;
* ``volume``: the bound e_0 (v_s - r_0 v_{s-1}) with e_0 = e_low and
  r_0 = e_high - 2, valid for every e in the range because r <= e - 2;
* ``interval``: G(e) = e (v_s - (e-2) v_{s-1}) certified over the
  integer interval [e_low, e_high] by the apex analysis.

A row's name is derived from its range, and a row holds only the values
it enforces.  Where the paper quotes a different target, interval or
slice, the row note says which and why: displayed bounds here are
truncations, so a quoted value that overstates the exact bound is
replaced by its truncation.  The quoted values live in the acceptance
tests, which check them against the exact ones.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple, Optional

from . import __version__
from .bounds import certify_interval, volume_lower_bound
from .rationals import _integer, decimal_render, format_rational
from .report import CertificationReport, ReportRow, _interval_notes
from .series import conjecture_threshold

__all__ = ["verify_tables"]


class TableRow(NamedTuple):
    """One range of multiplicities and the certificate that covers it."""

    kind: str  # "large-e", "volume" or "interval"
    e_low: int
    e_high: Optional[int] = None  # None: every e >= e_low
    s: Optional[Fraction] = None
    target: Optional[Fraction] = None  # None: the conjectured threshold
    note: str = ""

    @property
    def name(self) -> str:
        return f"e>={self.e_low}" if self.e_high is None else f"{self.e_low}<=e<={self.e_high}"


DIM5_ROWS: tuple[TableRow, ...] = (
    TableRow("large-e", 137),
    TableRow("volume", 35, 136, Fraction(7, 5), Fraction(1153, 1000)),
    TableRow(
        "volume", 18, 34, Fraction(17, 10), Fraction(1196, 1000),
        note=(
            "quoted target 1.197 rounds up from the exact bound 1196997/1000000; "
            "effective target 1.196 is its truncated display"
        ),
    ),
    TableRow("volume", 11, 17, Fraction(19, 10), Fraction(1187, 1000)),
    TableRow("volume", 7, 10, Fraction(21, 10), Fraction(1161, 1000)),
    TableRow("volume", 5, 6, Fraction(12, 5), Fraction(1313, 1000)),
)

DIM6_ROWS: tuple[TableRow, ...] = (
    TableRow(
        "large-e", 786,
        note="large-e threshold quoted as 786/720 while the conjectured constant is 781/720; 786/720 exceeds both",
    ),
    TableRow(
        "interval", 296, 786, Fraction(13, 10), Fraction(189, 100),
        note=(
            "the quoted apex display 3308.57 rounds up from the exact value (truncation: 3308.56); "
            "the increasing interval is sometimes quoted as [286, 786], endpoints [296, 786] used"
        ),
    ),
    TableRow("interval", 59, 296, Fraction(8, 5), Fraction(1133, 1000)),
    TableRow("interval", 26, 58, Fraction(19, 10), Fraction(1123, 1000)),
    TableRow("interval", 16, 25, Fraction(21, 10), Fraction(1118, 1000)),
    TableRow(
        "interval", 10, 15, Fraction(23, 10), Fraction(1118, 1000),
        note=(
            "quoted row ([10, 25], s = 11/5) is inconsistent: apex 16.98 is interior but "
            "min(G(10), G(25)) = 0.9304 misses 1.118, s = 11/5 contradicts the quoted apex 13.3, "
            "and the interval overlaps row 16<=e<=25; endpoints [10, 15] with s = 23/10 "
            "reproduce apex 13.34 and certify via G(10)"
        ),
    ),
    TableRow("interval", 5, 9, Fraction(13, 5), Fraction(1107, 1000)),
)


def _evaluate(d: int, row: TableRow, threshold: Fraction, threshold_text: str) -> ReportRow:
    """Recompute one row's certificate and compare it with its target and the threshold."""
    target = threshold if row.target is None else row.target
    if row.kind == "large-e":
        bound = Fraction(row.e_low, factorial(d))
        inputs = f"d={d} e>={row.e_low}"
        why = f"e_HK >= e/d! >= {row.e_low}/{factorial(d)}"
    elif row.kind == "volume":
        r0 = row.e_high - 2
        bound = volume_lower_bound(d, row.e_low, row.s, r=r0)
        inputs = f"d={d} e0={row.e_low} r0={r0} s={format_rational(row.s)}"
        why = ""
    else:
        cert = certify_interval(d, row.e_low, row.e_high, row.s)
        bound = cert.certified_bound
        inputs = f"d={d} a={row.e_low} b={row.e_high} s={format_rational(row.s)}"
        if cert.branch == "increasing":  # spelled out with the apex's decimal value
            why = (
                f"{cert.branch}: apex {format_rational(cert.apex)} = {decimal_render(cert.apex)} "
                f"> {row.e_high}, so G increases on the interval and G({row.e_low}) certifies"
            )
        else:
            why = f"{cert.branch}: {_interval_notes(cert, row.e_low, row.e_high)}"
    verdict = f"exceeds conjectured threshold {threshold_text}: {'yes' if bound > threshold else 'no'}"
    return ReportRow(row.name, inputs, bound, target, "; ".join(filter(None, (verdict, why, row.note))))


def verify_tables(dim: int) -> CertificationReport:
    """Recompute and certify every row of the bundled table for ``dim``."""
    rows = {5: DIM5_ROWS, 6: DIM6_ROWS}.get(dim := _integer("dim", dim))
    if rows is None:
        raise ValueError(f"tables exist for dimensions 5 and 6, got {dim}")
    threshold = conjecture_threshold(dim)
    threshold_text = format_rational(threshold)
    return CertificationReport(
        tool_version=__version__,
        command=f"verify-tables --dim {dim}",
        rows=tuple(_evaluate(dim, row, threshold, threshold_text) for row in rows),
    )
