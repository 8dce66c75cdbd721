"""No test assertion may be one that cannot fail.

`assert cond or True` and `assert "message"` pass whatever the code does; a
check written that way reads as coverage that is not there.
"""

import ast
from pathlib import Path


def _always_true(node: ast.expr) -> bool:
    """True for a truthy constant or literal, or an `or` with such an operand."""
    if isinstance(node, ast.Constant):
        return bool(node.value)
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(not isinstance(e, ast.Starred) for e in node.elts)
    if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
        return any(map(_always_true, node.values))
    return False


def test_always_true_flags_only_vacuous_tests():
    def flags(source):
        return _always_true(ast.parse(source, mode="eval").body)

    assert flags("True") and flags("'message'") and flags("(x, 'message')")
    assert flags("x != 0 or True") and flags("x or (y or 1)")
    assert not flags("x") and not flags("x or y") and not flags("x and True")
    assert not flags("0") and not flags("()") and not flags("(*x,)") and not flags("x or None")


def test_no_test_asserts_a_truthy_constant():
    found = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) and _always_true(node.test):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"asserts that cannot fail: {found}"
