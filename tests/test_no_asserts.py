"""Internal checks in the library raise explicit errors: ``python -O``
strips ``assert`` statements, so none may guard an invariant."""

import ast
from pathlib import Path

import hopfgenus

PACKAGE = Path(hopfgenus.__file__).parent


def test_no_assert_statements_in_the_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        "%s:%d" % (path.relative_to(PACKAGE.parent), node.lineno)
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
