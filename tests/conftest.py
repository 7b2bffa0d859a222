"""Fixtures shared by the test modules."""

from pathlib import Path

import pytest

import plueckerfan


@pytest.fixture
def python_env():
    """The environment of a Python subprocess that imports this checkout's package.

    The child writes no bytecode, so a test run leaves no ``__pycache__`` in
    the source tree.
    """
    return {"PYTHONPATH": str(Path(plueckerfan.__file__).resolve().parents[1]),
            "PYTHONDONTWRITEBYTECODE": "1"}
