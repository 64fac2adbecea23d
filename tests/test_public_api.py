import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hkcert
from hkcert import bounds, monomial, rationals, report, series, slab, tables
from hkcert.tables import TableRow
from test_cli import child_env

PUBLIC_NAMES = [
    "CertificationReport",
    "ColengthEntry",
    "ColengthSequence",
    "IntervalCertRow",
    "MonomialIdeal",
    "ReportRow",
    "certify_interval",
    "conjecture_threshold",
    "decimal_render",
    "ehk_estimate",
    "fixed_dimension_bound",
    "format_rational",
    "frobenius_colength",
    "mixed_colength",
    "optimize_slice",
    "parse_generators",
    "parse_rational",
    "quadric_ehk",
    "radical_recursion_bound",
    "verify_tables",
    "vol_slab",
    "volume_lower_bound",
    "zigzag_coeffs",
]


def test_public_api_is_pinned():
    # 23 public names plus __version__; adding or dropping an export must edit this list.
    assert len(PUBLIC_NAMES) == 23
    assert sorted(hkcert.__all__) == sorted(PUBLIC_NAMES + ["__version__"])
    namespace = {}
    exec("from hkcert import *", namespace)
    for name in hkcert.__all__:
        assert namespace[name] is getattr(hkcert, name), name


def test_package_names_are_the_module_lists():
    # Each module's __all__ is the one list of its public names; the package
    # adds only __version__, and no name is exported by two modules.
    modules = (bounds, monomial, rationals, report, series, slab, tables)
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(hkcert.__all__) == sorted(["__version__", *names])
    for module in modules:
        for name in module.__all__:
            assert getattr(hkcert, name) is getattr(module, name), name


def test_package_loads_its_modules_on_first_use():
    # A CLI process imports only its subcommand's modules; the first use of any
    # package name but __version__, dir() among them, loads all seven and binds
    # their names.
    probe = (
        "import sys, hkcert\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('hkcert.'))\n"
        "print(hkcert.__version__, loaded())\n"
        "names = dir(hkcert)\n"
        "print(hkcert.vol_slab.__module__, loaded())\n"
        "print(sorted(set(hkcert.__all__) - set(vars(hkcert))), sorted(set(hkcert.__all__) - set(names)))\n"
    )
    result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=child_env())
    assert result.returncode == 0, result.stderr
    modules = sorted(f"hkcert.{name}" for name in ("bounds", "monomial", "rationals", "report", "series", "slab",
                                                    "tables"))
    assert result.stdout.splitlines() == [
        f"{hkcert.__version__} []",
        f"hkcert.slab {modules}",
        "[] []",
    ]


def _loaded_after(statement):
    probe = f"import sys\n{statement}\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'hkcert'))\n"
    result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=child_env())
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("name", [*hkcert._MODULES, "cli"])
def test_from_import_loads_only_that_module(name):
    # The import system probes the package for the name first, which must not
    # load the other submodules.
    assert _loaded_after(f"from hkcert import {name}") == _loaded_after(f"import hkcert.{name}")


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        hkcert.no_such_name
    assert "no_such_name" not in dir(hkcert)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_version_matches_pyproject():
    # Every report's tool-version line prints __version__, and the package
    # metadata takes its version from there: the version is written once.
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        config = tomllib.load(fh)
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "hkcert.__version__"}


_ROW = hkcert.ReportRow("r", "d=5", Fraction(6, 5), Fraction(1))
_ENTRY = hkcert.ColengthEntry(q=2, colength=12, normalized=Fraction(3))
RECORDS = [
    (hkcert.IntervalCertRow(None, Fraction(1), Fraction(2), "degenerate-linear-increasing"), "apex"),
    (_ENTRY, "colength"),
    (hkcert.ColengthSequence((_ENTRY,)), "entries"),
    (hkcert.MonomialIdeal(2, [(2, 0), (0, 2)]), "generators"),
    (_ROW, "passed"),
    (hkcert.CertificationReport("0", "verify-tables --dim 5", (_ROW,)), "rows"),
    (TableRow("large-e", 137), "e_low"),
]


@pytest.mark.parametrize("record, field", RECORDS, ids=[type(record).__name__ for record, _ in RECORDS])
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


# Each public record with the arguments of its constructor.  The report and
# the ideal also derive a value, kept beside the fields: the report's cells,
# one _cells call a row, and the ideal's pure powers, one _pure_powers walk.
CONTRACT = [
    (hkcert.CertificationReport, ("0", "verify-tables --dim 5", (_ROW,))),
    (hkcert.ColengthEntry, (2, 12, Fraction(3))),
    (hkcert.ColengthSequence, ((_ENTRY,),)),
    (hkcert.IntervalCertRow, (None, Fraction(1), Fraction(2), "degenerate-linear-increasing")),
    (hkcert.MonomialIdeal, (2, ((0, 2), (1, 1), (2, 0)))),
    (hkcert.ReportRow, ("r", "d=5", Fraction(6, 5), Fraction(1), "")),
]


def _derived(record):
    if isinstance(record, hkcert.CertificationReport):
        return record.cells
    if isinstance(record, hkcert.MonomialIdeal):
        return record.pure_power_exponents()
    return None


@pytest.fixture
def derivations(monkeypatch):
    """The arguments of every ``report._cells`` and ``monomial._pure_powers`` call, in order."""
    calls = []
    for module, name in ((report, "_cells"), (monomial, "_pure_powers")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("cls, args", CONTRACT, ids=[cls.__name__ for cls, _ in CONTRACT])
def test_record_is_its_constructors_tuple(cls, args, derivations):
    record = cls(*args)
    assert record == args and tuple(record) == args and record._fields == cls._fields
    derived, built = _derived(record), len(derivations)
    assert built == (cls in (hkcert.CertificationReport, hkcert.MonomialIdeal))
    # A derived value is read, never derived again: the same object each time.
    assert _derived(record) is derived and len(derivations) == built
    twins = [copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record)),
             cls._make(args), record._replace()]
    for twin in twins:
        assert type(twin) is cls and twin == record and _derived(twin) == derived
    # Each copy, unpickling, _make and _replace goes through the constructor.
    assert len(derivations) == built * (1 + len(twins))
    # Neither a field nor the report's derived cells can be assigned.
    assigned = dict(zip(cls._fields, args))
    if cls is hkcert.CertificationReport:
        assigned["cells"] = derived
    for name, value in assigned.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)


@pytest.mark.parametrize("dim", [5, 6])
def test_report_cells_cannot_drift_from_rows(dim):
    report = hkcert.verify_tables(dim)
    text = report.to_text()
    with pytest.raises(AttributeError):
        report.cells = ()
    assert report.to_text() == text
    assert report.overall_pass == all(row.passed for row in report.rows)


def test_colengths_read_the_constructors_pure_powers(monkeypatch):
    # The walk is the constructor's alone: no colength walks the generators again.
    ideal, parameter = hkcert.MonomialIdeal(2, ((2, 0), (1, 1), (0, 2))), hkcert.MonomialIdeal(2, ((2, 0), (0, 3)))
    monkeypatch.setattr(monomial, "_pure_powers", lambda *args: pytest.fail("generators walked again"))
    assert hkcert.frobenius_colength(ideal, 2) == 12
    assert [entry.colength for entry in hkcert.ehk_estimate(ideal, [1, 2]).entries] == [3, 12]
    assert hkcert.mixed_colength(parameter, 1, 2) == 6 * 3


def test_record_defaults():
    row = TableRow("large-e", 137)
    assert row.e_high is None and row.s is None and row.target is None
    assert row.note == ""
    # The paper's quoted values live in tests/test_acceptance.py, not on the rows.
    assert TableRow._fields == ("kind", "e_low", "e_high", "s", "target", "note")
    # An interval row holds G at both ends; its certified bound is derived.
    cert = hkcert.IntervalCertRow(None, Fraction(3), Fraction(2), "degenerate-linear-increasing")
    assert hkcert.IntervalCertRow._fields == ("apex", "g_low", "g_high", "branch")
    assert cert.certified_bound == 2
    assert _ROW.notes == ""
