"""Correctness checks in the package must survive `python -O`, which strips asserts.

Internal invariants raise padic.InvariantError, never AssertionError, so that
callers and tests can tell a failed invariant from a failed test assertion.
"""

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


def test_package_raises_no_assertion_error():
    package = Path(padicsep.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"raise AssertionError in src/padicsep: {found}"
