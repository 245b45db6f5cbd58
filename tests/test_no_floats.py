"""The library computes with ints and Fractions and never uses floats.

Every module of the package is parsed, not imported, so the guard also
covers code that no other test reaches.
"""

import ast
from pathlib import Path

import pytest

import verolink

MODULES = sorted(Path(verolink.__file__).parent.glob("*.py"))


def is_fraction_call(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction")


def float_uses(tree):
    """(line, reason) for every float literal, `float` name or bare `/`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "the name float"
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            if not is_fraction_call(node.left):
                yield node.lineno, "true division without a Fraction(...) left operand"
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            yield node.lineno, "in-place true division"


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"exactlin.py", "poly.py", "verify.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_no_floats(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(float_uses(tree)) == []


@pytest.mark.parametrize("source, expected", [
    ("x = 0.5", 1),
    ("y = float(3)", 1),
    ("z = a / b", 1),
    ("a /= 2", 1),
    ("w = Fraction(a) / b", 0),
    ("v = a // b", 0),
])
def test_the_guard_sees_each_kind_of_float(source, expected):
    assert len(list(float_uses(ast.parse(source)))) == expected
