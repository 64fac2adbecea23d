"""Machine-readable certification reports.

A report is a flat structured-text document: fixed header fields, one
block of fixed-order fields per row, and a trailing overall verdict.
The same rows can be exported as CSV, a cell quoted by RFC 4180's rule.
Reports contain no timestamps or other environment-dependent data, so
identical invocations produce byte-identical output, on every Python.
The sentence that explains an interval certificate is written here too,
for the table's interval rows and for the ``certify-interval`` command.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .rationals import decimal_render, format_rational

__all__ = ["CertificationReport", "ReportRow"]


class ReportRow(NamedTuple):
    """One certified comparison: an exact bound against an exact target."""

    name: str
    inputs: str
    exact_bound: Fraction
    target: Fraction
    notes: str = ""

    @property
    def passed(self) -> bool:
        """The verdict, derived from the exact values: the bound meets the target."""
        return self.exact_bound >= self.target

    @property
    def decimal(self) -> str:
        """Truncated rendering of the exact bound."""
        return decimal_render(self.exact_bound)


# The columns of a report row, in order, as the text form labels them; the
# CSV header spells them with underscores.  The text form heads each row's
# block with its name and prints an empty cell as "-".
_COLUMNS = ("name", "inputs", "exact-bound", "decimal", "target", "pass", "notes")


def _cells(row: ReportRow) -> tuple[str, ...]:
    """The row's cells in ``_COLUMNS`` order."""
    verdict = "true" if row.passed else "false"
    return row.name, row.inputs, format_rational(row.exact_bound), row.decimal, format_rational(row.target), verdict, row.notes


_PASS = _COLUMNS.index("pass")
_CSV_HEADER = ",".join(column.replace("-", "_") for column in _COLUMNS) + "\n"


def _csv_field(cell: str) -> str:
    """``cell`` as one CSV field: quoted, each inner quote doubled, where it holds a comma, a quote, CR or LF."""
    if '"' in cell or "," in cell or "\r" in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


class _CertificationReportFields(NamedTuple):
    tool_version: str
    command: str
    rows: tuple[ReportRow, ...]


class CertificationReport(_CertificationReportFields):
    """A report's three fields, and beside them ``cells``: each row's ``_cells``, computed once.

    ``cells`` is derived by the constructor, never an argument, so a
    made, replaced, copied or unpickled report derives it again, and
    ``to_text``, ``to_csv`` and ``overall_pass`` only read it.  Like the
    fields, it cannot be assigned.
    """

    def __new__(cls, tool_version: str, command: str, rows: Sequence[ReportRow]) -> CertificationReport:
        report = super().__new__(cls, tool_version, command, tuple(rows))
        report._rendered = tuple(map(_cells, report.rows))
        return report

    @property
    def cells(self) -> tuple[tuple[str, ...], ...]:
        return self._rendered

    @classmethod
    def _make(cls, iterable) -> CertificationReport:  # NamedTuple's own skips __new__, so cells
        return cls(*iterable)

    @property
    def overall_pass(self) -> bool:
        return all(cells[_PASS] == "true" for cells in self.cells)

    def to_text(self) -> str:
        lines = [
            "report-version: 1",
            f"tool-version: {self.tool_version}",
            f"command: {self.command}",
            f"rows: {len(self.rows)}",
        ]
        for name, *cells in self.cells:
            lines.append(f"row: {name}")
            lines += [f"  {column}: {cell or '-'}" for column, cell in zip(_COLUMNS[1:], cells)]
        lines.append(f"overall-pass: {'true' if self.overall_pass else 'false'}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        return _CSV_HEADER + "".join(",".join(map(_csv_field, cells)) + "\n" for cells in self.cells)


def _interval_notes(cert, lo: int, hi: int) -> str:
    """Which end of [lo, hi] certifies the ``certify_interval`` row ``cert``, and why, in ``format_rational``'s text."""
    if cert.branch == "degenerate-linear-increasing":
        return f"v_(s-1) = 0: G(e) = e*v_s is linear increasing; G({lo}) certifies"
    apex = format_rational(cert.apex)
    if cert.branch == "apex-interior":
        g_low, g_high = format_rational(cert.g_low), format_rational(cert.g_high)
        return f"apex {apex} inside [{lo}, {hi}]; G({lo}) = {g_low}, G({hi}) = {g_high}"
    if cert.branch == "increasing":
        return f"apex {apex} right of [{lo}, {hi}]; G increasing; G({lo}) certifies"
    return f"apex {apex} left of [{lo}, {hi}]; G decreasing; G({hi}) certifies"
