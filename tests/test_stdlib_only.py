"""The package imports nothing outside the standard library and itself.

README promises "runtime: stdlib only"; sympy, hypothesis and pytest serve
the tests alone.
"""

import ast
import sys
from pathlib import Path

import padicsep


def test_package_imports_only_stdlib_and_itself():
    package = Path(padicsep.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside padicsep
            for name in names:
                top = name.partition(".")[0]
                if top != "padicsep" and top not in sys.stdlib_module_names:
                    found.append(f"{path.name}:{node.lineno} imports {name}")
    assert not found, f"non-stdlib imports in src/padicsep: {found}"
