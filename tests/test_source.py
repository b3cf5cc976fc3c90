"""Checks on the package source itself."""

import ast
from pathlib import Path

import geomextract

SOURCES = sorted(Path(geomextract.__file__).parent.glob("*.py"))


def test_no_bare_asserts_in_package():
    # python -O strips assert statements; invariants raise
    # AlgorithmInvariantError instead so that they always run.
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
