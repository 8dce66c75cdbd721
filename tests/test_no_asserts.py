"""Correctness checks in the package must survive `python -O`, which strips asserts."""

import ast
from pathlib import Path

import padicsep


def test_package_has_no_assert_statements():
    package = Path(padicsep.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in src/padicsep: {found}"
