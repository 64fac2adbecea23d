"""Tripwire for the "no float on any computational path" invariant.

Parses every module of the package and fails on a float literal, any use
of the name ``float``, or a floating-point ``math`` function.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hkcert"
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
