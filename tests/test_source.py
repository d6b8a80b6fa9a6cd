"""Checks on the package source itself."""

import ast
from pathlib import Path

import torusk

SRC = Path(torusk.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips assert statements; every check the package makes
    # must be an explicit raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
