"""Checks on the package source as text."""

import ast
from collections import Counter
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


def _top_level_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _reads(tree):
    return [
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)
    ]


def test_private_names_are_read_in_src():
    # a private top-level name that no other package code reads serves
    # only the tests: an oracle belongs in tests/, dead code nowhere
    trees = [ast.parse(path.read_text()) for path in sorted(_SRC.glob("*.py"))]
    reads = Counter(name for tree in trees for name in _reads(tree))
    offences = [
        name
        for tree in trees
        for node in tree.body
        for name in _top_level_names(node)
        if name.startswith("_") and not name.startswith("__") and reads[name] == _reads(node).count(name)
    ]
    assert not offences, offences
