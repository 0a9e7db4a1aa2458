"""Checks on the package source as text."""

import ast
from pathlib import Path

import shadiv

_SRC = Path(shadiv.__file__).parent


def test_no_assert_statements_in_src():
    # `python -O` strips assert statements: a check in the package raises
    # a typed error instead
    offences = [
        f"{path.name}:{node.lineno}"
        for path in sorted(_SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not offences, offences
