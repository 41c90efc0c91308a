"""Package layout: no module imports a private name from a sibling module."""

import ast
from pathlib import Path

import stablemaps

PACKAGE = Path(stablemaps.__file__).parent


def private_imports(directory):
    """'module: name' for every underscore name imported from the package."""
    found = []
    for path in sorted(directory.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or (node.module or "").split(".")[0] == "stablemaps":
                found += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    return found


def test_no_private_cross_module_imports():
    assert private_imports(PACKAGE) == []
