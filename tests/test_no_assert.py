"""No library control flow depends on ``assert``.

``python -O`` strips assert statements, so a check written as one
vanishes silently.  Library checks raise named exceptions instead.
"""

import ast
from pathlib import Path

import bureslab


def test_library_has_no_assert_statements():
    package = Path(bureslab.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
