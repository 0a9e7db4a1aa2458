"""Checks on the package source as text."""

import ast
from collections import Counter
from pathlib import Path

import shadiv

_SRC = Path(shadiv.__file__).parent
_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# public names that no command reads but that each state a result of the
# paper which nothing else in the package checks
_PAPER_STATEMENTS = {
    # the uniform and refined degree criteria over a number field of degree d
    "verdict_number_field",
    # p = 3 is the one odd prime where a quasi-unipotent lift with unipotent
    # reduction mod p can fail to be unipotent
    "unipotent_lift_exception",
}


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


def _is_command(node):
    """A CLI command: registered by its @main.command decorator, which reads it."""
    return any(isinstance(n, ast.Attribute) and n.attr == "command" for d in getattr(node, "decorator_list", ()) for n in ast.walk(d))


def test_public_names_are_read_in_src_or_perfbench():
    # a public top-level name that no other package code reads, and that
    # the benchmark neither calls nor traces by name, serves only the tests
    trees = [ast.parse(path.read_text()) for path in sorted(_SRC.glob("*.py"))]
    reads = Counter(name for tree in trees for name in _reads(tree))
    bench = [ast.parse(path.read_text()) for path in sorted(_PERFBENCH.glob("*.py"))]
    bench_reads = {name for tree in bench for name in _reads(tree)}
    bench_reads |= {n.value for tree in bench for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    offences = [
        name
        for tree in trees
        for node in tree.body
        for name in _top_level_names(node)
        if not name.startswith("_")
        and reads[name] == _reads(node).count(name)
        and name not in bench_reads | _PAPER_STATEMENTS
        and not _is_command(node)
    ]
    assert not offences, offences


def _run_config_keywords(path):
    return {
        kw.arg
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "RunConfig"
        for kw in node.keywords
    }


def test_run_config_fields_are_set_by_a_command_or_the_benchmark():
    # a RunConfig field that neither the CLI nor perfbench passes is a knob
    # no run can turn
    tree = ast.parse((_SRC / "divisibility.py").read_text())
    config = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "RunConfig")
    fields = {n.target.id for n in config.body if isinstance(n, ast.AnnAssign)}
    passed = set().union(*map(_run_config_keywords, [_SRC / "cli.py", *sorted(_PERFBENCH.glob("*.py"))]))
    assert fields, "RunConfig has no fields"
    assert not fields - passed, sorted(fields - passed)
