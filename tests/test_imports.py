"""Every name a module of the package imports is read somewhere in it.

A name counts as read when it is loaded anywhere in the module, at module
level or inside a function, or when the module lists it in ``__all__``.
``__init__.py`` is left out: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).parent.parent / "src" / "qtfa").glob("*.py")
                 if p.name != "__init__.py")


def _imported(tree):
    """(name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                yield alias.asname or alias.name.split(".")[0], node.lineno


def _read(tree):
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names |= set(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = _read(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in read]
    assert not unused, f"{path.name} imports names it never reads: {', '.join(unused)}"


def test_an_unread_import_is_found():
    tree = ast.parse("import os\nfrom json import dumps, loads\n__all__ = ['loads']\nos.sep\n")
    assert [name for name, _ in _imported(tree) if name not in _read(tree)] == ["dumps"]
