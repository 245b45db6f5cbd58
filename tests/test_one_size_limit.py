"""One size limit: no function takes a cap, and only ``size_cap`` reads
the environment.

Every module of the package is parsed, not imported, so the guard also
covers code that no other test reaches.
"""

import ast
from pathlib import Path

import pytest

import verolink

MODULES = sorted(Path(verolink.__file__).parent.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def cap_parameters(tree):
    """Line of every function or lambda with a parameter named ``cap``."""
    for node in ast.walk(tree):
        if isinstance(node, FUNCTIONS):
            a = node.args
            names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            if "cap" in names:
                yield node.lineno


def environment_readers(tree):
    """Name of the function around every use of ``os.environ``,
    ``os.getenv`` or a bare ``environ``/``getenv`` (None at module level)."""
    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        hit = (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
               or isinstance(node, ast.Name) and node.id in ("environ", "getenv")
               or isinstance(node, ast.alias) and node.name in ("environ", "getenv"))
        if hit:
            yield owner
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)

    yield from visit(tree, None)


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"cli.py", "fibers.py", "link.py",
                                         "verify.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_takes_a_cap(path):
    assert list(cap_parameters(parse(path))) == []


def test_size_cap_is_the_only_environment_reader():
    readers = {(p.name, owner) for p in MODULES
               for owner in environment_readers(parse(p))}
    assert readers == {("fibers.py", "size_cap")}


@pytest.mark.parametrize("source, expected", [
    ("def f(b, cap=None): pass", 1),
    ("def f(b, *, cap): pass", 1),
    ("def f(cap, /): pass", 1),
    ("g = lambda cap: cap", 1),
    ("def f(b, limit=None): pass", 0),
    ("def f(b): return b.cap", 0),
])
def test_the_cap_guard_sees_each_parameter_kind(source, expected):
    assert len(list(cap_parameters(ast.parse(source)))) == expected


@pytest.mark.parametrize("source, expected", [
    ("import os\ndef f(): return os.environ.get('X')", ["f"]),
    ("import os\ndef g(): return os.getenv('X')", ["g"]),
    ("from os import environ\nX = environ['X']", [None, None]),
    ("def h(env): return env.get('X')", []),
])
def test_the_environment_guard_names_each_reader(source, expected):
    assert list(environment_readers(ast.parse(source))) == expected
