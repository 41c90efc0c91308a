"""Package layout: no module imports a private name from a sibling module,
or reaches into a private attribute of a name it imports from one."""

import ast
from pathlib import Path

import stablemaps

PACKAGE = Path(stablemaps.__file__).parent


def _sibling_imports(tree):
    """The ImportFrom nodes of a module that import from the package."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "stablemaps")]


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(directory):
    """'module: name' for every underscore name imported from the package."""
    found = []
    for path in sorted(directory.glob("*.py")):
        for node in _sibling_imports(ast.parse(path.read_text(encoding="utf-8"))):
            found += [f"{path.name}: {alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return found


def private_attributes(directory):
    """'module: Name._attr' for every access to a non-dunder underscore
    attribute of a name the module imports from the package."""
    found = []
    for path in sorted(directory.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name
                    for node in _sibling_imports(tree) for alias in node.names}
        found += [f"{path.name}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in imported and _is_private(node.attr)]
    return found


def test_no_private_cross_module_imports():
    assert private_imports(PACKAGE) == []


def test_no_private_attributes_of_imported_names():
    assert private_attributes(PACKAGE) == []


def test_private_attribute_check_flags_a_reach_in(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .qfield import RatFunc, UPoly\n"
        "from . import series as s\n"
        "x = RatFunc._reduced(UPoly.__new__, s._pack)\n"
        "y = object()._hidden\n", encoding="utf-8")
    assert private_attributes(tmp_path) == ["a.py: RatFunc._reduced", "a.py: s._pack"]


def unused_imports(directory):
    """'module: name' for every module-level import that its module never
    uses; names the module lists in __all__ and __future__ imports are
    exempt."""
    found = []
    for path in sorted(directory.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names if name not in used]
    return found


def test_no_unused_imports():
    assert unused_imports(PACKAGE) == []


def test_unused_import_check_flags_a_stranded_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "from .qfield import U, LINE_CLASS as L, RatFunc\n"
        "from .series import series_adams\n"
        "__all__ = ['RatFunc']\n"
        "def f():\n"
        "    return json.dumps(L)\n", encoding="utf-8")
    assert unused_imports(tmp_path) == ["a.py: os", "a.py: U", "a.py: series_adams"]
