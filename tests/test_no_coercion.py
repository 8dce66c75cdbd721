"""No module but padic.py coerces a caller's value with int(...) or Fraction(...).

int(2.7) truncates and Fraction(0.1) keeps the binary float, so a coercion
lets inexact values into exact arithmetic.  Entry points check their
arguments through padic's gate (_as_p, _as_int, _as_rational) instead.  The
guard flags a one-argument int(...) or Fraction(...) call on a parameter of
an enclosing function, on a subscript of one (int(descr["n"])), or on a
comprehension variable drawn directly from one.
"""

import ast
from pathlib import Path

import padicsep

COERCIONS = {"int", "Fraction"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def _coercions(node, params: frozenset, found: list, where: str) -> None:
    if isinstance(node, FUNCTIONS):
        args = node.args
        params = params | {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        params |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    elif isinstance(node, COMPREHENSIONS):
        params = params | {gen.target.id for gen in node.generators
                           if isinstance(gen.target, ast.Name) and isinstance(gen.iter, ast.Name)
                           and gen.iter.id in params}
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in COERCIONS and len(node.args) == 1 and not node.keywords:
        arg = node.args[0]
        name = arg.value if isinstance(arg, ast.Subscript) else arg
        if isinstance(name, ast.Name) and name.id in params:
            found.append(f"{where}:{node.lineno} {node.func.id}({ast.unparse(arg)})")
    for child in ast.iter_child_nodes(node):
        _coercions(child, params, found, where)


def coercion_sites(source: str, where: str) -> list:
    found: list = []
    _coercions(ast.parse(source), frozenset(), found, where)
    return found


def test_no_module_but_padic_coerces_an_argument():
    package = Path(padicsep.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name != "padic.py":
            found += coercion_sites(path.read_text(), path.name)
    assert not found, f"coerce through padic's _as_int/_as_rational instead: {found}"


def test_guard_flags_each_coercion_shape():
    source = '''
def f(b, coeffs, x, nu):
    b = tuple(int(bi) for bi in b)
    c = list(int(a) for a in coeffs)
    xs = [Fraction(v) for v in x]
    return Fraction(nu), int(len(b)), Fraction(1, 2), [int(y) for y in range(3)]

g = lambda q: int(q)
h = lambda descr: int(descr["n"])
'''
    assert coercion_sites(source, "m") == ["m:3 int(bi)", "m:4 int(a)", "m:5 Fraction(v)",
                                           "m:6 Fraction(nu)", "m:8 int(q)", "m:9 int(descr['n'])"]
