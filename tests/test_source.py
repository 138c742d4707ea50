"""Rules on the package source itself."""

import ast
from pathlib import Path

import patcoh


def test_no_assert_statements_in_package():
    # assert vanishes under `python -O`; control flow raises real errors
    files = sorted(Path(patcoh.__file__).parent.rglob("*.py"))
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
