"""Machine-readable certification reports.

A report is a flat structured-text document: fixed header fields, one
block of fixed-order fields per row, and a trailing overall verdict.
The same rows can be exported as CSV.  Reports contain no timestamps or
other environment-dependent data, so identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from typing import NamedTuple

from .rationals import DISPLAY_DIGITS, decimal_render, format_rational

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
        return decimal_render(self.exact_bound, DISPLAY_DIGITS)


class CertificationReport(NamedTuple):
    tool_version: str
    command: str
    rows: tuple[ReportRow, ...]

    @property
    def overall_pass(self) -> bool:
        return all(row.passed for row in self.rows)

    def to_text(self) -> str:
        lines = [
            "report-version: 1",
            f"tool-version: {self.tool_version}",
            f"command: {self.command}",
            f"rows: {len(self.rows)}",
        ]
        for row in self.rows:
            lines.append(f"row: {row.name}")
            lines.append(f"  inputs: {row.inputs}")
            lines.append(f"  exact-bound: {format_rational(row.exact_bound)}")
            lines.append(f"  decimal: {row.decimal}")
            lines.append(f"  target: {format_rational(row.target)}")
            lines.append(f"  pass: {'true' if row.passed else 'false'}")
            lines.append(f"  notes: {row.notes or '-'}")
        lines.append(f"overall-pass: {'true' if self.overall_pass else 'false'}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["name", "inputs", "exact_bound", "decimal", "target", "pass", "notes"])
        for row in self.rows:
            writer.writerow(
                [
                    row.name,
                    row.inputs,
                    format_rational(row.exact_bound),
                    row.decimal,
                    format_rational(row.target),
                    "true" if row.passed else "false",
                    row.notes,
                ]
            )
        return buffer.getvalue()
