import copy
import csv
import hashlib
import io
import pickle
import sys
from datetime import timedelta
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from hkcert import bounds, report as report_module
from hkcert.bounds import volume_lower_bound
from hkcert.rationals import DISPLAY_DIGITS, decimal_render, format_rational, parse_rational
from hkcert.report import CertificationReport, ReportRow
from hkcert.series import conjecture_threshold
from hkcert.tables import DIM5_ROWS, DIM6_ROWS, verify_tables
from test_acceptance import QUOTED, effective
from test_slab import termwise_vol_slab

TABLES = {5: DIM5_ROWS, 6: DIM6_ROWS}


def test_dim5_report_passes():
    report = verify_tables(5)
    assert report.overall_pass
    assert [row.name for row in report.rows] == [
        "e>=137", "35<=e<=136", "18<=e<=34", "11<=e<=17", "7<=e<=10", "5<=e<=6",
    ]


def test_dim6_report_passes():
    report = verify_tables(6)
    assert report.overall_pass
    assert [row.name for row in report.rows] == [
        "e>=786", "296<=e<=786", "59<=e<=296", "26<=e<=58", "16<=e<=25", "10<=e<=15", "5<=e<=9",
    ]


def test_rejects_other_dimensions():
    with pytest.raises(ValueError):
        verify_tables(4)


def test_exact_bounds_reparse_to_recomputed_values():
    report = verify_tables(5)
    by_name = {row.name: row for row in report.rows}
    for row_def in DIM5_ROWS:
        if row_def.kind == "volume":
            recomputed = volume_lower_bound(5, row_def.e_low, row_def.s, r=row_def.e_high - 2)
            rendered = format_rational(by_name[row_def.name].exact_bound)
            assert parse_rational(rendered) == recomputed


def _quoted(dim, row):
    """The paper's quoted values of a row, each with the effective value it replaces."""
    return [(value, effective(row)[field]) for field, value in QUOTED.get((dim, row.name), {}).items()]


def test_quoted_targets_match_effective_except_flagged_rows():
    # A quoted value is listed only where it differs from the effective one.
    for dim, flagged in ((5, ["18<=e<=34"]), (6, ["296<=e<=786", "10<=e<=15"])):
        rows = TABLES[dim]
        assert [row.name for row in rows if _quoted(dim, row)] == flagged
        for row in rows:
            for value, enforced in _quoted(dim, row):
                assert value != enforced, row.name
    assert _quoted(5, DIM5_ROWS[2]) == [(Fraction(1197, 1000), Fraction(1196, 1000))]
    assert _quoted(6, DIM6_ROWS[5]) == [((10, 25), (10, 15)), (Fraction(11, 5), Fraction(23, 10))]
    assert len(QUOTED) == 3


def test_report_is_deterministic():
    first = verify_tables(6).to_text()
    second = verify_tables(6).to_text()
    assert first == second


# sha256 of the verify-tables reports, as recorded in bench/data/table_digests.json.
REPORT_SHA256 = {
    5: (
        "215420e55622ff13fdb74a947a25b1597d748e6032056cf5e5864f15dae7bc81",
        "2ad03f9d8ae55965e8919ca9c07ed56b504a28ec2427fa20f5fef86b66f34adb",
    ),
    6: (
        "12632e6f9e8c45ed4f83a0fdd90e97fe1bca21503203f58c3070bec6ac7bacc6",
        "1f919a666f2a6f42dc8787b5ec845705dc32f8e5823234090e385f6bb273211c",
    ),
}


@pytest.mark.parametrize("dim", [5, 6])
def test_report_bytes_are_pinned(dim):
    report = verify_tables(dim)
    text_sha, csv_sha = REPORT_SHA256[dim]
    assert hashlib.sha256(report.to_text().encode()).hexdigest() == text_sha
    assert hashlib.sha256(report.to_csv().encode()).hexdigest() == csv_sha


@pytest.mark.parametrize("dim, ratios", [(5, 10), (6, 12)])
def test_volume_count_is_pinned(dim, ratios, monkeypatch):
    # The cost model, no timer: each volume or interval row evaluates the
    # pair v_s, v_{s-1} as one _slab_ratios call of two points (5 volume
    # rows at d = 5, 6 interval rows at d = 6).
    calls = []
    real_ratios = bounds._slab_ratios
    monkeypatch.setattr(bounds, "_slab_ratios", lambda *a: calls.append(a) or real_ratios(*a))
    verify_tables(dim)
    assert sum(len(points) for _, *points in calls) == ratios
    assert all(d == dim and len(points) == 2 for d, *points in calls)


def _finite_rows(dim):
    """(e_low, e_high, s, target) of every finite-range row of the bundled table."""
    return [(row.e_low, row.e_high, row.s, row.target) for row in TABLES[dim] if row.e_high is not None]


@pytest.mark.parametrize("dim", [5, 6])
def test_row_ranges_cover_every_multiplicity(dim):
    (large_e,) = [row.e_low for row in TABLES[dim] if row.kind == "large-e"]
    assert Fraction(large_e, factorial(dim)) >= conjecture_threshold(dim)
    covered_to = 4
    for low, high, _, _ in sorted(_finite_rows(dim)):
        assert low <= covered_to + 1, f"gap before e = {low}"
        covered_to = max(covered_to, high)
    assert covered_to + 1 >= large_e


@pytest.mark.parametrize("dim", [5, 6])
def test_every_multiplicity_in_a_row_meets_its_target(dim):
    # Second path: the termwise Irwin-Hall sum, G(e) evaluated at every
    # integer e of every finite row rather than through the apex analysis.
    for low, high, s, target in _finite_rows(dim):
        v_s, v_prev = termwise_vol_slab(dim, s), termwise_vol_slab(dim, s - 1)
        for e in range(low, high + 1):
            assert e * (v_s - (e - 2) * v_prev) >= target, (dim, low, high, e)


def test_dim5_volume_rows_are_positive():
    for row in DIM5_ROWS:
        if row.kind == "volume":
            assert termwise_vol_slab(5, row.s) - (row.e_high - 2) * termwise_vol_slab(5, row.s - 1) > 0


def test_inconsistent_row_is_documented():
    report = verify_tables(6)
    row = next(row for row in report.rows if row.name == "10<=e<=15")
    assert "overlaps row 16<=e<=25" in row.notes
    assert "quoted row ([10, 25], s = 11/5)" in row.notes
    apex_row = next(row for row in report.rows if row.name == "296<=e<=786")
    assert "3308.57 rounds up" in apex_row.notes
    assert "so G increases on the interval and G(" in apex_row.notes
    large_row = next(row for row in report.rows if row.name == "e>=786")
    assert "quoted as 786/720 while the conjectured constant is 781/720" in large_row.notes


def test_text_format_fields_are_fixed_order():
    text = verify_tables(5).to_text()
    lines = text.splitlines()
    assert lines[0] == "report-version: 1"
    assert lines[1].startswith("tool-version: ")
    assert lines[2] == "command: verify-tables --dim 5"
    assert lines[3] == "rows: 6"
    assert lines[-1] == "overall-pass: true"
    row_starts = [i for i, line in enumerate(lines) if line.startswith("row: ")]
    for i in row_starts:
        assert lines[i + 1].startswith("  inputs: ")
        assert lines[i + 2].startswith("  exact-bound: ")
        assert lines[i + 3].startswith("  decimal: ")
        assert lines[i + 4].startswith("  target: ")
        assert lines[i + 5].startswith("  pass: ")
        assert lines[i + 6].startswith("  notes: ")


def test_csv_export_roundtrip():
    report = verify_tables(6)
    rows = list(csv.DictReader(io.StringIO(report.to_csv())))
    assert len(rows) == len(report.rows)
    for given, row in zip(rows, report.rows):
        assert given["name"] == row.name
        assert Fraction(given["exact_bound"]) == row.exact_bound
        assert given["pass"] == "true"
        assert Fraction(given["decimal"]) <= row.exact_bound


def test_decimal_column_truncates_exact_bound():
    for dim in (5, 6):
        for row in verify_tables(dim).rows:
            rendered = Fraction(row.decimal)
            assert rendered <= row.exact_bound < rendered + Fraction(1, 10**4)


def test_overall_pass_reflects_rows():
    failing = ReportRow(name="x", inputs="-", exact_bound=Fraction(1), target=Fraction(2))
    passing = ReportRow(name="y", inputs="-", exact_bound=Fraction(2), target=Fraction(1))
    report = CertificationReport(tool_version="0", command="test", rows=(passing, failing))
    assert not report.overall_pass
    assert report.to_text().splitlines()[-1] == "overall-pass: false"


def test_verdict_is_derived_from_the_exact_values():
    # A row below its target cannot report a pass: the verdict is not stored.
    short = ReportRow(name="short", inputs="-", exact_bound=Fraction(1196, 1000), target=Fraction(1197, 1000))
    exact = ReportRow(name="exact", inputs="-", exact_bound=Fraction(1197, 1000), target=Fraction(1197, 1000))
    assert short.passed is False and exact.passed is True
    assert ReportRow._fields == ("name", "inputs", "exact_bound", "target", "notes")
    report = CertificationReport(tool_version="0", command="test", rows=(exact, short))
    lines = report.to_text().splitlines()
    assert [line for line in lines if line.startswith("  pass: ")] == ["  pass: true", "  pass: false"]
    assert lines[-1] == "overall-pass: false"
    rows = list(csv.DictReader(io.StringIO(report.to_csv())))
    assert [(row["name"], row["pass"]) for row in rows] == [("exact", "true"), ("short", "false")]
    passing = CertificationReport(tool_version="0", command="test", rows=(exact,))
    assert passing.to_text().endswith("overall-pass: true\n")


# Second path: the per-call renderer the report used before it kept its
# cells, which formats every row again for each of to_text and to_csv and
# compares each row's Fractions again for overall_pass.
_OLD_COLUMNS = ("name", "inputs", "exact-bound", "decimal", "target", "pass", "notes")


def _old_cells(row):
    verdict = "true" if row.exact_bound >= row.target else "false"
    decimal = decimal_render(row.exact_bound, DISPLAY_DIGITS)
    return row.name, row.inputs, format_rational(row.exact_bound), decimal, format_rational(row.target), verdict, row.notes


def _old_overall_pass(rows):
    return all(row.exact_bound >= row.target for row in rows)


def _old_to_text(tool_version, command, rows):
    lines = ["report-version: 1", f"tool-version: {tool_version}", f"command: {command}", f"rows: {len(rows)}"]
    for row in rows:
        name, *cells = _old_cells(row)
        lines.append(f"row: {name}")
        lines += [f"  {column}: {cell or '-'}" for column, cell in zip(_OLD_COLUMNS[1:], cells)]
    lines.append(f"overall-pass: {'true' if _old_overall_pass(rows) else 'false'}")
    return "\n".join(lines) + "\n"


def _csv_line(cells):
    # Each row through its own csv.writer: with "\r\n" as the terminator every
    # Python quotes a cell holding CR or LF (3.10-3.12 quote only the
    # terminator's characters), and only the terminator is swapped for "\n".
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow(cells)
    line = buffer.getvalue()
    assert line.endswith("\r\n")
    return line[:-2] + "\n"


def _old_to_csv(rows):
    header = _csv_line(column.replace("-", "_") for column in _OLD_COLUMNS)
    return header + "".join(_csv_line(_old_cells(row)) for row in rows)


def _read_csv(text):
    return list(csv.reader(io.StringIO(text, newline="")))


_BIG = 2**300
_fractions = st.one_of(
    st.integers(-50, 50).map(Fraction),
    st.fractions(max_denominator=10**6),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
)
_text = st.text(st.sampled_from('ab1 ,"\n\r-;=:'), max_size=12)
_rows = st.lists(st.builds(ReportRow, _text, _text, _fractions, _fractions, _text), max_size=6)


@settings(max_examples=200, deadline=timedelta(seconds=1))
@given(rows=_rows, tool_version=_text, command=_text)
def test_renderers_match_the_per_call_renderer(rows, tool_version, command):
    report = CertificationReport(tool_version, command, rows)
    assert report.to_text() == _old_to_text(tool_version, command, rows)
    text = report.to_csv()
    assert text == _old_to_csv(rows)
    assert _read_csv(text) == [[column.replace("-", "_") for column in _OLD_COLUMNS], *map(list, report.cells)]
    assert report.overall_pass is _old_overall_pass(rows)


def test_a_carriage_return_is_quoted():
    # csv.writer(lineterminator="\n") leaves this cell bare on Python 3.10-3.12,
    # and csv.reader then splits the row in two.
    report = CertificationReport("0", "test", [ReportRow("a\rb", '1,"2"', Fraction(1), Fraction(1), "x\ny")])
    text = report.to_csv()
    assert text.startswith("name,inputs,exact_bound,decimal,target,pass,notes\n")
    assert text.endswith('\n"a\rb","1,""2""",1,1.0000,1,true,"x\ny"\n')
    assert text == _old_to_csv(report.rows)
    assert _read_csv(text)[1:] == [["a\rb", '1,"2"', "1", "1.0000", "1", "true", "x\ny"]]


def test_each_row_is_rendered_once(monkeypatch):
    # verify_tables(6) and all three readers: one _cells call and at most one
    # verdict per row (7 rows).  The per-call renderer made 14 and 28.
    cells_calls, passed_calls = [], []
    real_cells, real_passed = report_module._cells, ReportRow.passed
    monkeypatch.setattr(report_module, "_cells", lambda row: cells_calls.append(row) or real_cells(row))
    monkeypatch.setattr(ReportRow, "passed", property(lambda row: passed_calls.append(row) or real_passed.fget(row)))
    report = verify_tables(6)
    report.to_text(), report.to_csv(), report.overall_pass
    assert len(report.rows) == 7
    assert cells_calls == list(report.rows)
    assert len(passed_calls) <= 7


def test_cells_are_derived_from_rows():
    passing = ReportRow("y", "-", Fraction(2), Fraction(1))
    failing = ReportRow("x", "-", Fraction(1), Fraction(2))
    report = CertificationReport("0", "test", [passing])
    assert report.rows == (passing,)
    assert report.cells == (("y", "-", "2", "2.0000", "1", "true", ""),)
    replaced = report._replace(rows=(passing, failing))
    assert replaced.cells[1] == ("x", "-", "1", "1.0000", "2", "false", "")
    assert not replaced.overall_pass
    assert CertificationReport._make(("0", "test", (failing,))).cells == (replaced.cells[1],)
    assert copy.deepcopy(replaced) == replaced == pickle.loads(pickle.dumps(replaced))
    with pytest.raises(TypeError):
        CertificationReport("0", "test", (passing,), cells=())
    # NamedTuple's own refusal of a name that is not a field: TypeError from Python 3.13.
    with pytest.raises(TypeError if sys.version_info >= (3, 13) else ValueError,
                       match=r"^Got unexpected field names: \['cells'\]$"):
        report._replace(cells=())
