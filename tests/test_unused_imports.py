"""Every name a module of the package imports is read in that module, every
private helper, module-level or a method of a class, is read somewhere in
the package, and so is every public function or method outside one pinned
list of kept API.

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


def _defined_and_read(sources):
    """What ``sources`` define and read: the functions and classes defined
    at module level and the methods of those classes, as {qualified name:
    name} with ``Class.name`` for a method, each with whether it is a
    function; and the names the sources read, by name or as an attribute."""
    trees = [ast.parse(source) for source in sources]
    defined = {}
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = (node.name, isinstance(node, ast.FunctionDef))
        if isinstance(node, ast.ClassDef):
            defined.update({f"{node.name}.{m.name}": (m.name, isinstance(m, ast.FunctionDef))
                            for m in node.body
                            if isinstance(m, (ast.FunctionDef, ast.ClassDef))})
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return defined, read


def dead_helpers(sources):
    """The ``_private`` functions and classes defined at module level in
    ``sources``, and the ``_private`` methods of their classes, that no
    source reads, by name or as an attribute.  A method read only by the
    tests is dead too: the tests are not among the sources."""
    defined, read = _defined_and_read(sources)
    return sorted({name for name, _ in defined.values()
                   if name.startswith("_") and not name.startswith("__")} - read)


def dead_public_members(sources):
    """The public functions defined at module level in ``sources``, and the
    public methods of their classes, that no source reads, by name or as an
    attribute, as ``name`` or ``Class.name``.  The check goes by name, so a
    member whose name the sources read elsewhere (a method ``identity``
    beside ``FiniteGroup.identity``) is never reported."""
    defined, read = _defined_and_read(sources)
    return sorted(qualified for qualified, (name, function) in defined.items()
                  if function and not name.startswith("_") and name not in read)


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


def _package_sources():
    paths = Path(partialskew.__file__).parent.glob("*.py")
    return [p.read_text(encoding="utf-8") for p in sorted(paths)]


def test_no_dead_helpers():
    assert dead_helpers(_package_sources()) == []


def test_detects_dead_public_members():
    first = ("def used():\n    pass\n\n"
             "def dead():\n    pass\n\n"
             "def _private():\n    return used\n\n"
             "class Public:\n"
             "    def __init__(self):\n        self.method()\n\n"
             "    def method(self):\n        pass\n\n"
             "    def dead_method(self):\n        pass\n\n"
             "    def read_elsewhere(self):\n        pass\n")
    second = "from . import first\nfirst.Public().read_elsewhere()\n"
    assert dead_public_members([first, second]) == ["Public.dead_method", "dead"]


def private_attribute_reads(source, names):
    """The attributes among ``names`` that ``source`` reads, sorted."""
    return sorted({node.attr for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and node.attr in names})


def test_detects_private_attribute_reads():
    source = "span._rows.values()\nleft = span._residual\nother._rows = {}\n"
    assert private_attribute_reads(source, {"_rows", "_residual", "_kept"}) == [
        "_residual", "_rows"]


def test_only_linalg_reads_the_echelon_form_of_a_subspace():
    # other modules read a subspace through ``basis``, ``pivots``, ``in``
    # and ``coordinates``, never its {pivot: row} dict or its reduction
    paths = Path(partialskew.__file__).parent.glob("*.py")
    reads = {p.name: private_attribute_reads(p.read_text(encoding="utf-8"),
                                             {"_rows", "_residual"})
             for p in sorted(paths) if p.name != "linalg.py"}
    assert {name: attrs for name, attrs in reads.items() if attrs} == {}


# The public members that no module of the package reads, kept as its API
# for callers and the tests.  A helper that loses its last reader in the
# package fails the test below until it is deleted or listed here.
KEPT_API = [
    "Report.canonical",
    "Report.named",
    "is_central_idempotent",
    "make_partial_hopf_action",
    "parse_structured",
]


def test_no_dead_public_members():
    assert dead_public_members(_package_sources()) == KEPT_API
