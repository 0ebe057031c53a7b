"""Checks on the package source itself, for want of a linter."""

import ast
import types
from pathlib import Path

import pytest

import bilink

MODULES = sorted(path for path in Path(bilink.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names an import in `source` binds that no expression reads."""
    imported = set()
    for node in ast.walk(tree := ast.parse(source)):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import os.path\nimport numpy as np\nfrom a import b, c as d\nos.sep, d\n"
    assert unused_imports(source) == ["b", "np"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(source: str) -> list:
    """The module-level `_name`s (function, class or assigned) that no
    expression in `source` reads."""
    defined = set()
    for node in (tree := ast.parse(source)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {name.id for target in targets for name in ast.walk(target)
                        if isinstance(name, ast.Name)}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in defined - read
                  if name.startswith("_") and not name.startswith("__"))


def test_unread_private_names_are_found():
    source = ("_A, _B = 1, 2\n_C: int = 3\n__all__ = []\n"
              "def _f():\n    return _A\n"
              "class _K:\n    pass\n"
              "def g():\n    _B = 0\n    return _f()\n")
    assert unread_private_names(source) == ["_B", "_C", "_K"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_every_private_name_it_defines(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def export_problems(source: str, package) -> list:
    """How the package `__init__` source `source`, loaded as `package`, breaks
    the export rule: the names its imports bind equal `__all__` less
    `__version__`, `__all__` lists each name once, and every name in it
    resolves on `package`."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    (exported,) = [ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "__all__" for t in node.targets)]
    listed = set(exported) - {"__version__"}
    return ([f"imported, not exported: {n}" for n in sorted(imported - listed)]
            + [f"exported, not imported: {n}" for n in sorted(listed - imported)]
            + [f"exported twice: {n}" for n in sorted({n for n in exported
                                                       if exported.count(n) > 1})]
            + [f"does not resolve: {n}" for n in exported if not hasattr(package, n)])


def test_export_problems_are_found():
    source = ("from .a import B, C\nfrom .d import E as F\n__version__ = '1'\n"
              "__all__ = ['B', 'F', 'B', 'Gone', '__version__']\n")
    package = types.SimpleNamespace(B=1, C=2, F=3, __version__="1")
    assert export_problems(source, package) == [
        "imported, not exported: C", "exported, not imported: Gone",
        "exported twice: B", "does not resolve: Gone"]


def test_package_exports_what_it_imports():
    init = Path(bilink.__file__)
    assert export_problems(init.read_text(encoding="utf-8"), bilink) == []
