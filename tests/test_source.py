"""Checks on the package source itself."""

import ast
from pathlib import Path

import tjurina

SOURCES = sorted(Path(tjurina.__file__).resolve().parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # assert statements vanish under python -O; invariant checks must raise
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []
