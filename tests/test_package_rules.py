"""Two rules over the package's source, each a function of source text.

* No assert statements: ``python -O`` strips them, and the "impossible"
  errors must raise instead.
* No recursive function: a recursive walk fails at the interpreter's
  recursion limit, not at a bound of its own.  A call by the function's
  own name counts, and so does ``self.<name>(...)`` or ``cls.<name>(...)``.

Each rule runs on ``src/seaweeds/``, where it must find nothing, and on
planted violations, each of which it must flag.  CI runs them by rule
(``-k assert``, ``-k recursive``).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "seaweeds"


def assert_statements(source: str) -> list[int]:
    """The line of each assert statement in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def recursive_functions(source: str) -> list[int]:
    """The line of each function in ``source`` that calls itself, by its own
    name or as ``self.<name>`` or ``cls.<name>``."""
    return [
        f.lineno for f in ast.walk(ast.parse(source)) if isinstance(f, ast.FunctionDef)
        if any(isinstance(c, ast.Call) and (
            isinstance(c.func, ast.Name) and c.func.id == f.name
            or isinstance(c.func, ast.Attribute) and c.func.attr == f.name
            and isinstance(c.func.value, ast.Name) and c.func.value.id in ("self", "cls"))
            for c in ast.walk(f))
    ]


def violations(rule) -> list[str]:
    """``path:line`` of every violation of ``rule`` in the package, whose
    modules must all be found, so that no rule passes on an empty list."""
    paths = sorted(PACKAGE.rglob("*.py"))
    assert {path.name for path in paths} >= {"__init__.py", "counting.py", "cli.py"}, PACKAGE
    return [f"{path}:{line}" for path in paths for line in rule(path.read_text())]


def test_no_assert_statements_in_the_package():
    assert violations(assert_statements) == []


@pytest.mark.parametrize("source, lines", [
    ("def f(n):\n    assert n > 0\n    return n\n", [2]),
    ("x = 1\nassert x, 'x'\n", [2]),
    ("class C:\n    def m(self):\n        assert self\n", [3]),
], ids=["in-function", "module-level", "in-method"])
def test_assert_rule_flags_planted_asserts(source, lines):
    assert assert_statements(source) == lines


def test_no_recursive_function_in_the_package():
    assert violations(recursive_functions) == []


@pytest.mark.parametrize("source, lines", [
    ("def f(n):\n    return f(n - 1)\n", [1]),
    ("class W:\n    def walk(self, n):\n        return self.walk(n - 1)\n", [2]),
    ("class W:\n    @classmethod\n    def walk(cls, n):\n        return cls.walk(n - 1)\n", [3]),
    ("def outer():\n    def inner(n):\n        return inner(n)\n    return inner\n", [2]),
], ids=["by-name", "self-method", "cls-method", "nested"])
def test_recursive_rule_flags_planted_recursion(source, lines):
    assert sorted(recursive_functions(source)) == lines


@pytest.mark.parametrize("source", [
    "def f(n):\n    return g(n - 1)\n",
    "class W:\n    def walk(self, other):\n        return other.walk(1)\n",
    "def f(stack):\n    while stack:\n        stack.pop()\n",
], ids=["other-name", "other-object", "loop"])
def test_recursive_rule_passes_calls_that_are_not_recursion(source):
    assert recursive_functions(source) == []
