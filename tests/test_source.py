"""Checks on the package source itself, for want of a linter."""

import ast
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
