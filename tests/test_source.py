"""Checks on the library's source text."""

import ast
from pathlib import Path

import plueckerfan

PACKAGE = Path(plueckerfan.__file__).resolve().parent


def test_no_assert_statements():
    # asserts vanish under python -O; library checks raise instead
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
