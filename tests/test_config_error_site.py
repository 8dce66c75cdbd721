"""Configuration errors reach the user through one site: main() catches ConfigError.

The {"error", "field"} JSON line is written only inside main, and no cmd_*
function returns exit code 2 itself, so a new check cannot bypass the format.
"""

import ast
import inspect

import padicsep.cli as cli


def _is_error_json(node) -> bool:
    if not isinstance(node, ast.Dict):
        return False
    keys = {k.value for k in node.keys if isinstance(k, ast.Constant)}
    return {"error", "field"} <= keys


def test_error_json_written_only_in_main():
    tree = ast.parse(inspect.getsource(cli))
    sites = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        sites += [owner for node in ast.walk(top) if _is_error_json(node)]
    assert sites == ["main"], sites


def test_no_command_returns_exit_code_2():
    tree = ast.parse(inspect.getsource(cli))
    found = []
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name.startswith("cmd_"):
            found += [f"{top.name}:{node.lineno}" for node in ast.walk(top)
                      if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
                      and node.value.value == 2]
    assert not found, found
