"""Package layout: no module imports a private name from a sibling module,
or reaches into a private attribute of a name it imports from one, imports
a name it never uses, or exports a name or defines a public function,
class or method that only the tests use; and one function reads every
packed product back."""

import ast
from pathlib import Path

import stablemaps

PACKAGE = Path(stablemaps.__file__).parent
ROOT = Path(__file__).resolve().parents[1]  # the checkout: perfbench/ and demos/


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


def _all_names(tree):
    """The string entries of a module's __all__ list, if it has one."""
    return [e.value for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for e in node.value.elts if isinstance(e, ast.Constant)]


def unused_imports(directory):
    """'module: name' for every module-level import that its module never
    uses; names the module lists in __all__ and __future__ imports are
    exempt."""
    found = []
    for path in sorted(directory.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= set(_all_names(tree))
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


def _uses(node, enclosing=(), kinds=(ast.Name, ast.Attribute)):
    """The names a syntax tree refers to, as Name ids and Attribute attrs
    (of the node types in kinds), except a reference to a def or class from
    inside its own body."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing += (node.name,)
    if isinstance(node, kinds):
        name = node.id if isinstance(node, ast.Name) else node.attr
        if name not in enclosing:
            yield name
    for child in ast.iter_child_nodes(node):
        yield from _uses(child, enclosing, kinds)


def unused_exports(package, *others):
    """The names in the package's __all__ that no file outside the tests
    refers to: neither a package module other than __init__.py nor a file
    in the other directories.  Imports and docstrings do not count."""
    files = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    files += [p for d in others for p in sorted(d.glob("*.py"))]
    used = set()
    for path in files:
        used |= set(_uses(ast.parse(path.read_text(encoding="utf-8"))))
    exported = _all_names(ast.parse((package / "__init__.py").read_text(encoding="utf-8")))
    return [name for name in exported if name not in used]


def test_every_export_has_a_caller():
    assert unused_exports(PACKAGE, ROOT / "perfbench", ROOT / "demos") == []


def test_unused_export_check_flags_a_test_only_name(tmp_path):
    package, demos = tmp_path / "pkg", tmp_path / "demos"
    package.mkdir()
    demos.mkdir()
    (package / "__init__.py").write_text(
        "from .a import called, recursive, documented, imported, only_init\n"
        "only_init()\n"
        "__all__ = ['called', 'recursive', 'documented', 'imported', 'only_init']\n",
        encoding="utf-8")
    (package / "a.py").write_text(
        "def called():\n"
        "    pass\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def documented():\n"
        "    'unlike imported and called'\n"
        "def imported():\n"
        "    pass\n"
        "def only_init():\n"
        "    pass\n", encoding="utf-8")
    (package / "b.py").write_text("from .a import imported\n", encoding="utf-8")
    (demos / "d.py").write_text("import pkg\npkg.called()\n", encoding="utf-8")
    assert unused_exports(package, demos) == ["recursive", "documented", "imported",
                                              "only_init"]


def uncalled_definitions(package, *others):
    """'module: name' for every public top-level function or class of a
    package module that nothing names outside its own def, neither a package
    module (its own included) nor a file of the other directories: a name
    that only the tests use.  Imports, __all__ and docstrings do not count."""
    def parse(path):
        return ast.parse(path.read_text(encoding="utf-8"))
    modules = {path: parse(path) for path in sorted(package.glob("*.py"))}
    trees = [*modules.values(), *(parse(p) for d in others for p in sorted(d.glob("*.py")))]
    used = {name for tree in trees for name in _uses(tree)}
    return [f"{path.name}: {node.name}" for path, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in used]


def test_every_public_definition_has_a_caller():
    assert uncalled_definitions(PACKAGE, ROOT / "perfbench", ROOT / "demos") == []


def test_uncalled_definition_check_flags_a_test_only_function(tmp_path):
    package, demos = tmp_path / "pkg", tmp_path / "demos"
    package.mkdir()
    demos.mkdir()
    (package / "__init__.py").write_text(
        "from .a import exported\n"
        "__all__ = ['exported']\n", encoding="utf-8")
    (package / "a.py").write_text(
        "def helper():\n"
        "    pass\n"
        "def called():\n"
        "    return helper()\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def documented():\n"
        "    'unlike imported'\n"
        "def imported():\n"
        "    pass\n"
        "def exported():\n"
        "    pass\n"
        "class Shown:\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n", encoding="utf-8")
    (package / "b.py").write_text("from .a import called, imported\ncalled()\n",
                                  encoding="utf-8")
    (demos / "d.py").write_text("import pkg\nprint(pkg.a.Shown())\n", encoding="utf-8")
    assert uncalled_definitions(package, demos) == ["a.py: recursive", "a.py: documented",
                                                    "a.py: imported", "a.py: exported"]


def uncalled_methods(package, *others):
    """'module: Class.name' for every public method or property of a class
    in the package that no attribute reference names, outside its own def,
    in a package module or a file of the other directories."""
    def parse(path):
        return ast.parse(path.read_text(encoding="utf-8"))
    modules = {path: parse(path) for path in sorted(package.glob("*.py"))}
    trees = [*modules.values(), *(parse(p) for d in others for p in sorted(d.glob("*.py")))]
    used = {name for tree in trees for name in _uses(tree, kinds=ast.Attribute)}
    return [f"{path.name}: {cls.name}.{fn.name}" for path, tree in modules.items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not fn.name.startswith("_") and fn.name not in used]


def test_every_public_method_has_a_caller():
    assert uncalled_methods(PACKAGE, ROOT / "perfbench", ROOT / "demos") == []


def test_uncalled_method_check_flags_a_test_only_method(tmp_path):
    package, demos = tmp_path / "pkg", tmp_path / "demos"
    package.mkdir()
    demos.mkdir()
    (package / "a.py").write_text(
        "class A:\n"
        "    def called(self):\n"
        "        return self.helper()\n"
        "    def helper(self):\n"
        "        pass\n"
        "    def recursive(self, n):\n"
        "        return self.recursive(n - 1) if n else 0\n"
        "    @property\n"
        "    def prop(self):\n"
        "        pass\n"
        "    def named(self):\n"
        "        'named below as a bare name only'\n"
        "    def _private(self):\n"
        "        pass\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "named = A\n", encoding="utf-8")
    (demos / "d.py").write_text("import pkg\npkg.A().called()\n", encoding="utf-8")
    assert uncalled_methods(package, demos) == ["a.py: A.recursive", "a.py: A.prop",
                                                "a.py: A.named"]


def callers(directory, name):
    """'module: function' for every function of the modules in directory
    whose own body (not a def nested in it) calls `name`, as a bare name or
    as an attribute; a call outside any function reads 'module: <module>'."""
    found = []

    def visit(node, path, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            f = node.func
            called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if called == name:
                found.append(f"{path.name}: {function}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, function)

    for path in sorted(directory.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "<module>")
    return sorted(set(found))


def test_one_kronecker_core():
    # a product of two series and the grouped sum of products run one
    # pair loop, every packed cell is read back in one place, every result
    # is reduced as a whole in one place, and int rows become RatFunc cells
    # only in the coeffs view (_reduce makes UPolys of rows only to divide
    # out their gcd with the denominator)
    assert callers(PACKAGE, "_pair_sums") == ["series.py: __mul__",
                                              "series.py: sum_of_products"]
    assert callers(PACKAGE, "_unpack") == ["series.py: _read_cells"]
    assert callers(PACKAGE, "_reduce") == ["series.py: _from_rows"]
    assert callers(PACKAGE, "from_numer") == ["series.py: _reduce", "series.py: coeffs"]


def test_caller_check_finds_each_calling_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "from . import series as s\n"
        "def f(x):\n"
        "    return [_unpack(y, 32) for y in x]\n"
        "def g(x):\n"
        "    def inner():\n"
        "        return s._unpack(x, 64)\n"
        "    return inner\n"
        "def h(x):\n"
        "    return _unpack\n"
        "_unpack(0, 32)\n", encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "class C:\n"
        "    def m(self):\n"
        "        return _unpack(self, 32)\n", encoding="utf-8")
    assert callers(tmp_path, "_unpack") == ["a.py: <module>", "a.py: f", "a.py: inner",
                                            "b.py: m"]
