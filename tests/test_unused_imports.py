"""Every name a module of the package imports is read in that module, and
every private helper, module-level or a method of a class, is read
somewhere in the package.

No linter is part of the toolchain, so these ``ast`` passes stand in for the
unused-import and dead-code rules.  ``__init__`` is exempt from the first:
its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

import partialskew

MODULES = sorted(p for p in Path(partialskew.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    """The names bound by the imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_detects_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys as system\n"
              "from json import dumps, loads as parse\n"
              "system.exit(parse('0'))\n")
    assert unused_imports(source) == ["dumps", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_helpers(sources):
    """The ``_private`` functions and classes defined at module level in
    ``sources``, and the ``_private`` methods of their classes, that no
    source reads, by name or as an attribute.  A method read only by the
    tests is dead too: the tests are not among the sources."""
    trees = [ast.parse(source) for source in sources]
    modules = [tree.body for tree in trees]
    classes = [node.body for body in modules for node in body
               if isinstance(node, ast.ClassDef)]
    defined = {node.name for body in modules + classes for node in body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(defined - read)


def test_detects_dead_helpers():
    first = ("def _used():\n    pass\n\n"
             "def _dead():\n    def _inner():\n        pass\n\n"
             "class _Dead:\n    pass\n\n"
             "def _by_attribute():\n    pass\n\n"
             "def public():\n    return _used\n\n"
             "def __getattr__(name):\n    pass\n\n"
             "class Public:\n"
             "    def __init__(self):\n        self._method()\n\n"
             "    def _method(self):\n        pass\n\n"
             "    def _dead_method(self):\n        pass\n\n"
             "    def _read_elsewhere(self):\n        pass\n")
    second = ("from . import first\nfirst._by_attribute()\n"
              "first.Public()._read_elsewhere()\n")
    assert dead_helpers([first, second]) == ["_Dead", "_dead", "_dead_method"]


def test_no_dead_helpers():
    paths = Path(partialskew.__file__).parent.glob("*.py")
    assert dead_helpers([p.read_text(encoding="utf-8") for p in sorted(paths)]) == []
