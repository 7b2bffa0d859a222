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


def imports_run_at_load(tree):
    """The import statements of a module that run when it loads: all but those in functions."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def imported_modules(node):
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    return [alias.name for alias in node.names]


def test_numpy_is_imported_on_first_use():
    # the exact commands never build an array, so loading the package must not load numpy
    modules = sorted(PACKAGE.glob("*.py"))
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in imports_run_at_load(ast.parse(path.read_text(), str(path)))
             if any(name.split(".")[0] == "numpy" for name in imported_modules(node))]
    assert found == []
