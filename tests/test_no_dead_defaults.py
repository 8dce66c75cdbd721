"""Every default of a private function in the package is overridden by some call there.

A defaulted parameter that no call in src/padicsep ever passes is dead
plumbing: its value is a constant, and any branch on it is unreachable.
Public functions keep their defaults, because they serve library users.
"""

import ast
from pathlib import Path

import padicsep


def _private_defaults(tree):
    """(function, positional index or None, parameter) per defaulted parameter of a private def."""
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef) or not node.name.startswith("_") \
                or node.name.endswith("__"):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        bound = id(node) in methods and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        for idx in range(len(positional) - len(args.defaults), len(positional)):
            yield node.name, idx - bound, positional[idx].arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, None, arg.arg


def _passes(call: ast.Call, idx, param: str) -> bool:
    """Does call pass param, by keyword, by position idx, or through * or ** unpacking?"""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return idx is not None and len(call.args) > idx


def _dead_defaults(sources: list[str]) -> list[str]:
    trees = [ast.parse(source) for source in sources]
    calls = {}
    for node in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        calls.setdefault(name, []).append(node)
    return sorted({f"{name}({param}=...)" for tree in trees
                   for name, idx, param in _private_defaults(tree)
                   if not any(_passes(call, idx, param) for call in calls.get(name, []))})


def test_dead_defaults_flags_only_unpassed_private_defaults():
    source = """
def _f(a, b=1, *, c=2): pass
def _g(a, b=1): pass
def public(a, b=1): pass
class K:
    def _m(self, a=0): pass
    def __init__(self, a=0): pass
_f(0, c=3); _g(0, 1); K()._m(); public(0)
"""
    assert _dead_defaults([source]) == ["_f(b=...)", "_m(a=...)"]
    assert _dead_defaults([source, "_f(0, 5)\nk._m(1)"]) == []


def test_every_private_default_is_passed_somewhere():
    package = Path(padicsep.__file__).parent
    dead = _dead_defaults([path.read_text() for path in sorted(package.glob("*.py"))])
    assert not dead, f"defaults no call in src/padicsep passes: {dead}"
