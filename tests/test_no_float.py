"""Tripwires for four source invariants.

No float on any computational path: parses every module of the package
and fails on a float literal, any use of the name ``float``, or a
floating-point ``math`` function.

Values out of the bound engine: ``bounds.py`` imports neither formatter
of ``rationals``, so it returns values and leaves every text to the CLI
and the tables.

Independent references: ``bench/oracles.py``, which the tests and the
benchmark both check ``hkcert`` against, imports only the standard library.

One floor rule: no ``raise`` outside ``rationals.py`` words a lower bound
(``must be >=``), so every argument's floor is checked, with one message,
by the ``rationals`` reader that reads the argument.

One ceiling rule: no ``raise`` outside ``rationals.py`` words an upper
bound or a budget (``must be <=``, ``more than``, ``at most``, ``must
satisfy``, ``past the print budget``), so every cap is checked, with one
message, by ``rationals._at_most``, and every result that provably cannot
print is refused by ``rationals._check_printable`` before it is formed.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hkcert"
ORACLES = Path(__file__).resolve().parents[1] / "bench" / "oracles.py"
FORMATTERS = {"format_rational", "decimal_render"}
MODULES = sorted(PACKAGE.glob("*.py"))
FLOAT_MATH = {"sqrt", "log", "exp", "pow", "fsum"}


def float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"line {node.lineno}: name float")
        elif isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH:
            if isinstance(node.value, ast.Name) and node.value.id == "math":
                found.append(f"line {node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend(f"line {node.lineno}: from math import {a.name}" for a in node.names
                         if a.name in FLOAT_MATH or a.name == "*")
    return found


def test_package_modules_found():
    assert {"slab.py", "bounds.py", "series.py", "monomial.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.name)
def test_no_float_in_package(module):
    assert float_uses(ast.parse(module.read_text(), str(module))) == []


def test_tripwire_catches_each_form():
    source = "\n".join([
        "x = 0.5",
        "y = float(3)",
        "import math",
        "z = math.sqrt(2)",
        "from math import fsum",
    ])
    assert len(float_uses(ast.parse(source))) == 4


def non_stdlib_imports(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        else:
            continue
        found.extend(f"line {node.lineno}: import {name}" for name in names
                     if name.partition(".")[0] not in sys.stdlib_module_names)
    return found


def test_oracles_import_only_the_standard_library():
    assert non_stdlib_imports(ast.parse(ORACLES.read_text(), str(ORACLES))) == []


def test_import_tripwire_catches_each_form():
    source = "\n".join([
        "import hkcert",
        "from hkcert.slab import vol_slab",
        "from . import ops",
        "import itertools, hypothesis.strategies",
        "from fractions import Fraction",
    ])
    assert non_stdlib_imports(ast.parse(source)) == [
        "line 1: import hkcert",
        "line 2: import hkcert.slab",
        "line 3: import .",
        "line 4: import hypothesis.strategies",
    ]


def formatter_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found.extend(f"line {node.lineno}: import {a.name}" for a in node.names if a.name in FORMATTERS)
        elif isinstance(node, ast.Attribute) and node.attr in FORMATTERS:
            found.append(f"line {node.lineno}: .{node.attr}")
    return found


def test_bounds_imports_no_formatter():
    bounds = PACKAGE / "bounds.py"
    assert formatter_uses(ast.parse(bounds.read_text(), str(bounds))) == []


def test_formatter_tripwire_catches_each_form():
    source = "\n".join([
        "from .rationals import Rational, format_rational",
        "from hkcert.rationals import decimal_render as render",
        "from . import rationals",
        "text = rationals.format_rational(x)",
    ])
    assert formatter_uses(ast.parse(source)) == [
        "line 1: import format_rational",
        "line 2: import decimal_render",
        "line 4: .format_rational",
    ]


FLOOR_FORMS = ("must be >=",)
CEILING_FORMS = ("must be <=", "must be below", "more than", "at most", "must satisfy", "past the print budget")


def bound_messages(tree: ast.AST, forms: tuple[str, ...]) -> list[str]:
    """Each string constant in a ``raise`` that holds one of ``forms``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            found.extend(f"line {node.lineno}: {part.value!r}" for part in ast.walk(node.exc)
                         if isinstance(part, ast.Constant) and isinstance(part.value, str)
                         and any(form in part.value for form in forms))
    return found


def floor_messages(tree: ast.AST) -> list[str]:
    return bound_messages(tree, FLOOR_FORMS)


def ceiling_messages(tree: ast.AST) -> list[str]:
    return bound_messages(tree, CEILING_FORMS)


def test_floors_are_worded_only_in_rationals():
    worded = {m.name: floor_messages(ast.parse(m.read_text(), str(m))) for m in MODULES}
    assert len(worded.pop("rationals.py")) == 1
    assert worded == {name: [] for name in worded}


def test_floor_tripwire_catches_each_form():
    source = "\n".join([
        'raise ValueError("q must be >= 1")',
        'raise ValueError(f"dimension must be >= {least}")',
        "if d < 2:",
        '    raise ValueError(f"d must be >= {2}, got {d}") from None',
        'raise ValueError(f"d must be <= {cap}, got {d}")',
        'message = "s must be >= 0"',
    ])
    assert floor_messages(ast.parse(source)) == [
        "line 1: 'q must be >= 1'",
        "line 2: 'dimension must be >= '",
        "line 4: 'd must be >= '",
    ]


def test_ceilings_are_worded_only_in_rationals():
    worded = {m.name: ceiling_messages(ast.parse(m.read_text(), str(m))) for m in MODULES}
    # rationals words the one ceiling, beside its input budgets (digit runs, decimal exponents).
    assert len([m for m in worded.pop("rationals.py") if "must be <=" in m]) == 1
    assert worded == {name: [] for name in worded}


def test_ceiling_tripwire_catches_each_form():
    source = "\n".join([
        'raise ValueError(f"d must be <= {cap}, got {d}")',
        'raise ValueError(f"the scan needs {rows} rows, more than {cap}")',
        'raise ValueError(f"at most {cap} generators are supported")',
        'raise ValueError("codimension must satisfy 3 <= k <= e - 2")',
        'raise ValueError(f"p must be below {limit} for a deterministic primality test, got {p}")',
        'if bits > cap:',
        '    raise ValueError("a number of more than 4300 digits is past the print budget") from None',
        'raise ValueError("q must be >= 1")',
        'message = "d must be <= 512"',
    ])
    assert ceiling_messages(ast.parse(source)) == [
        "line 1: 'd must be <= '",
        "line 2: ' rows, more than '",
        "line 3: 'at most '",
        "line 4: 'codimension must satisfy 3 <= k <= e - 2'",
        "line 5: 'p must be below '",
        "line 7: 'a number of more than 4300 digits is past the print budget'",
    ]
