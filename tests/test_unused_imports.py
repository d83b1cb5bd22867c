"""Every name a module of the package imports is read in that module.

No linter is part of the toolchain, so this ``ast`` pass stands in for the
unused-import rule.  ``__init__`` is exempt: its imports are the package's
public names.
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
