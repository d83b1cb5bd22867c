"""Each sparse primitive of the package has one home.

* A table of sparse columns is applied reduced only by ``algebras._apply``:
  no other function calls ``sparse(_image(...))``, ``hopf`` keeps no reduced
  copy of its own (``_on_leg``), and no ``AlgebraMap`` is built only to
  call ``.apply`` on it, which would re-validate internal columns.
* The column index of a product table is built only by the cached
  ``StructureAlgebra.column_index``: nothing seeds it, and the old
  (by_row, by_col) pair ``nonempty_cells`` is gone.
"""

import ast
from pathlib import Path

import partialskew
from partialskew.algebras import StructureAlgebra

PACKAGE = Path(partialskew.__file__).parent
SOURCES = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}


def _owned(node, owner):
    """(owner, n) for ``node`` and every node n below it, ``owner`` naming
    the innermost function or class around n, qualified by ``owner``."""
    yield owner, node
    for child in ast.iter_child_nodes(node):
        named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
        yield from _owned(child, f"{owner}.{child.name}" if named else owner)


def _called(node, name):
    """True when ``node`` is a call of ``name``, bare or as an attribute."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == name
            or isinstance(func, ast.Attribute) and func.attr == name)


def reduced_images(source, module):
    """The owners of every ``sparse(_image(...))`` or ``x.sparse(_image(...))``
    call in ``source``."""
    return [owner for owner, node in _owned(ast.parse(source), module)
            if _called(node, "sparse") and node.args and _called(node.args[0], "_image")]


def maps_built_to_apply(source):
    """The ``AlgebraMap(...).apply`` expressions of ``source``."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "apply"
            and _called(node.value, "AlgebraMap")]


def test_detectors_find_the_retired_spellings():
    source = ("def f(field, cols, x, sparse):\n"
              "    a = field.sparse(_image(cols, x.items()))\n"
              "    b = sparse(_image(cols, x.items(), width=3))\n"
              "    c = field.sparse(acc)\n"
              "    return AlgebraMap(A, B, cols).apply(x), AlgebraMap(A, B, cols)\n")
    assert reduced_images(source, "m") == ["m.f", "m.f"]
    assert maps_built_to_apply(source) == ["AlgebraMap(A, B, cols).apply"]


def test_a_column_table_is_reduced_only_by_apply():
    owners = [owner for module, source in SOURCES.items()
              for owner in reduced_images(source, module)]
    assert owners == ["algebras._apply"]
    assert not any(maps_built_to_apply(source) for source in SOURCES.values())


def test_hopf_keeps_no_reduced_copy():
    defined = {node.name for node in ast.walk(ast.parse(SOURCES["hopf"]))
               if isinstance(node, ast.FunctionDef)}
    assert "_on_leg" not in defined
    assert "_apply" not in defined


def test_the_column_index_is_built_in_one_place():
    assert not hasattr(StructureAlgebra, "nonempty_cells")
    # no module reads the retired name or sets the cached index itself
    for module, source in SOURCES.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute):
                assert node.attr != "nonempty_cells", module
                if node.attr == "column_index":
                    assert isinstance(node.ctx, ast.Load), module
