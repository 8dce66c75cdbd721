"""No module of the package reads the environment.

Every setting is a function argument or a CLI flag (the worker count is
--workers alone), so a run is reproduced from its flags and embedded config.
"""

import ast
from pathlib import Path

import padicsep

ENV_READS = {"environ", "environb", "getenv"}


def test_package_reads_no_environment():
    package = Path(padicsep.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ENV_READS \
                    and isinstance(node.value, ast.Name) and node.value.id == "os":
                found.append(f"{path.name}:{node.lineno} reads os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name}:{node.lineno} imports os.{alias.name}"
                          for alias in node.names if alias.name in ENV_READS]
    assert not found, f"environment reads in src/padicsep: {found}"
