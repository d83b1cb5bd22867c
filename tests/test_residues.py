"""The F_p kernels against the wrapper arithmetic of ``fp_oracle``.

An F_p scalar is a canonical residue in ``[0, p)``; the kernels that multiply
and add scalars reduce once per output coefficient.  Here each kernel runs on
random sparse tables and vectors, with inputs drawn as arbitrary
representatives (negative ints, multiples of p), and must agree with the same
computation done in ``PrimeFieldElement`` arithmetic and return only
residues.  p = 2⁶¹ - 1 makes products of residues pass 2⁶⁴.
"""

from fractions import Fraction
import re

from hypothesis import given, settings, strategies as st
import pytest

from partialskew.actions import global_action, make_partial_action, restrict_global
from partialskew.algebras import (AlgebraMap, StructureAlgebra, _lincomb,
                                  ideal_basis, is_central_idempotent,
                                  make_algebra, product_of_fields)
from partialskew.fields import GF, QQ
from partialskew.groups import cyclic
from partialskew.hopf import group_hopf, make_hopf, make_partial_hopf_action
from partialskew.linalg import Subspace

from corpus_helpers import mapping_rows
from fp_oracle import unwrap, wrap

PRIMES = (2, 5, 7, 2**61 - 1)


def representatives(p):
    """Any int standing for an element of F_p, often non-canonical."""
    return st.one_of(st.integers(0, p - 1), st.integers(-3 * p, 3 * p),
                     st.integers(-3, 3).map(lambda m: m * p))


@st.composite
def instances(draw):
    """(field, table, x, y, c): a random sparse table of nonzero residues
    on d basis vectors, and two coefficient vectors and a scalar of
    arbitrary representatives."""
    p = draw(st.sampled_from(PRIMES))
    d = draw(st.integers(1, 4))
    residue = st.integers(1, p - 1)

    def cell():
        return draw(st.dictionaries(st.integers(0, d - 1), residue, max_size=d))

    table = [[tuple(sorted(cell().items())) for _ in range(d)] for _ in range(d)]
    vec = st.lists(representatives(p), min_size=d, max_size=d)
    return GF(p), table, draw(vec), draw(vec), draw(representatives(p))


def _residues(xs, p):
    return all(type(x) is int and 0 <= x < p for x in xs)


def _oracle_mul(field, table, x, y):
    """The dense product x·y, every operation in the wrapper arithmetic."""
    d = len(table)
    out = [wrap(field, 0)] * d
    for i in range(d):
        for j in range(d):
            for k, v in table[i][j]:
                out[k] = out[k] + wrap(field, x[i]) * y[j] * v
    return tuple(unwrap(v) for v in out)


def _sparse(vec):
    return {k: v for k, v in enumerate(vec) if v}


@settings(max_examples=150, deadline=None)
@given(instances())
def test_product_kernels_match_wrapper_route(inst):
    field, table, x, y, _ = inst
    p = field.p
    alg = StructureAlgebra(field, mapping_rows(table), None)
    want = _oracle_mul(field, table, x, y)
    got = alg.mul(_sparse(x), _sparse(y))
    assert got == _sparse(want) and _residues(got.values(), p)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_linear_kernels_match_wrapper_route(inst):
    field, _, x, y, c = inst
    p = field.p
    wx, wy, wc = ([wrap(field, v) for v in x], [wrap(field, v) for v in y],
                  wrap(field, c))
    comb = _lincomb(field, [(c, _sparse(x)), (x[0], _sparse(y))])
    want = [wc * a + wx[0] * b for a, b in zip(wx, wy)]
    assert comb == _sparse(unwrap(v) for v in want)
    assert _residues(comb.values(), p)


def test_kernel_of_a_non_canonical_system():
    # 5 is 0 in F_5, so the one equation is x_1 = 0
    kernel = Subspace.kernel(GF(5), 2, [{0: 5, 1: 1}])
    assert list(kernel.basis) == [{0: 1}]


def test_spans_of_non_canonical_vectors_are_residues():
    assert list(Subspace.span(GF(5), 2, [{0: 5, 1: 6}]).basis) == [{1: 1}]
    assert (list(Subspace.span(GF(5), 2, [{0: 10, 1: 3}, {0: -1}]).basis)
            == [{0: 1}, {1: 1}])


# -- sparse vectors and columns from the Python API ------------------------
# Every constructor that takes a vector or a map reads it by the one column
# check: each row an int in range, each scalar through the field's
# ``scalars`` (any int representative over F_p, reduced; an int or a
# Fraction over Q), one column per basis vector.  Each build below hands in
# the scalar x, or the row index x, at one place of otherwise valid data on
# k×k, k = field^1 × field^1.

def _k2(field):
    return product_of_fields(field, 2)


def _action(field, unit=None, marker=None, col=None):
    """C₂ on k×k with the projection off the identity, with one part replaced."""
    k2 = _k2(field)
    return make_partial_action(cyclic(2), k2, [unit or {0: 1, 1: 1}, marker or {0: 1}],
                               [[{0: 1}, {1: 1}], col or [{0: 1}, {}]])


def _hopf(field, counit=None, antipode=None):
    h = group_hopf(field, cyclic(2))
    return make_hopf(h.algebra, h.comul, counit or h.counit, antipode or h.antipode)


def _hopf_action(field, col):
    return make_partial_hopf_action(group_hopf(field, cyclic(2)), _k2(field),
                                    [[{0: 1}, {1: 1}], col])


def _restrict(field, e):
    parent = global_action(cyclic(1), _k2(field), [[{0: 1}, {1: 1}]])
    return restrict_global(parent, e)


# (name, build from a scalar, build from a row index, the vector's name)
SPARSE_INPUTS = [
    ("AlgebraMap", lambda f, x: AlgebraMap(_k2(f), _k2(f), [{0: 1}, {1: x}]),
     lambda f, r: AlgebraMap(_k2(f), _k2(f), [{0: 1}, {r: 1}]), "map column"),
    ("action.idempotent", lambda f, x: _action(f, marker={0: 1, 1: x}),
     lambda f, r: _action(f, marker={r: 1}), "idempotent"),
    ("action.unit", lambda f, x: _action(f, unit={0: 1, 1: x}),
     lambda f, r: _action(f, unit={r: 1}), "idempotent"),
    ("action.column", lambda f, x: _action(f, col=[{0: x}, {}]),
     lambda f, r: _action(f, col=[{r: 1}, {}]), "map column"),
    ("global_action", lambda f, x: global_action(cyclic(1), _k2(f), [[{0: 1}, {1: x}]]),
     lambda f, r: global_action(cyclic(1), _k2(f), [[{0: 1}, {r: 1}]]), "map column"),
    ("restrict_global", lambda f, x: _restrict(f, {0: x}),
     lambda f, r: _restrict(f, {r: 1}), "idempotent"),
    ("make_hopf.counit", lambda f, x: _hopf(f, counit={0: 1, 1: x}),
     lambda f, r: _hopf(f, counit={r: 1}), "counit"),
    ("make_hopf.antipode", lambda f, x: _hopf(f, antipode=[{0: 1}, {1: x}]),
     lambda f, r: _hopf(f, antipode=[{0: 1}, {r: 1}]), "antipode column"),
    ("make_partial_hopf_action", lambda f, x: _hopf_action(f, [{0: x}, {}]),
     lambda f, r: _hopf_action(f, [{r: 1}, {}]), "map column"),
    ("ideal_basis", lambda f, x: ideal_basis(_k2(f), {0: x}),
     lambda f, r: ideal_basis(_k2(f), {r: 1}), "idempotent"),
    ("is_central_idempotent", lambda f, x: is_central_idempotent(_k2(f), {0: x}),
     lambda f, r: is_central_idempotent(_k2(f), {r: 1}), "idempotent"),
]
IDS = [name for name, *_ in SPARSE_INPUTS]


@pytest.mark.parametrize("name, build, _, __", SPARSE_INPUTS, ids=IDS)
@pytest.mark.parametrize("scalar", [Fraction(1, 2), Fraction(2), 1.0, True])
def test_non_int_scalars_refused_over_fp(name, build, _, __, scalar):
    with pytest.raises(ValueError) as info:
        build(GF(5), scalar)
    assert str(info.value) == f"scalar {scalar!r} is not an int representative of an element of F_5"


@pytest.mark.parametrize("name, build, _, __", SPARSE_INPUTS, ids=IDS)
@pytest.mark.parametrize("scalar", [1.0, 0.5, True, False, "1"])
def test_inexact_scalars_refused_over_q(name, build, _, __, scalar):
    with pytest.raises(ValueError) as info:
        build(QQ, scalar)
    assert str(info.value) == f"scalar {scalar!r} is not an exact rational (an int or a Fraction)"


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["q", "fp:5"])
@pytest.mark.parametrize("name, _, build, what", SPARSE_INPUTS, ids=IDS)
@pytest.mark.parametrize("row", ["0", 0.0, True, -1, 2])
def test_row_indices_outside_the_algebra_refused(field, name, _, build, what, row):
    # a str, a float or a bool is not an int index; -1 and 2 are not in 0..1
    with pytest.raises(ValueError) as info:
        build(field, row)
    assert str(info.value) == f"{what} has an index outside 0..1"


@pytest.mark.parametrize("build, what", [
    (lambda f: AlgebraMap(_k2(f), _k2(f), [(1, 0), (0, 1)]), "map column"),
    (lambda f: _action(f, marker=(1, 0)), "idempotent"),
    (lambda f: _action(f, col=[(1, 0), (0, 0)]), "map column"),
    (lambda f: _hopf(f, counit=(1, 1)), "counit"),
    (lambda f: _hopf(f, antipode=[(1, 0), (0, 1)]), "antipode column"),
    (lambda f: ideal_basis(_k2(f), (1, 0)), "idempotent"),
    (lambda f: make_algebra(f, _k2(f).products, (1, 1)), "unit"),
], ids=["AlgebraMap", "idempotent", "action", "counit", "antipode", "ideal_basis",
        "make_algebra"])
def test_a_dense_vector_is_refused(build, what):
    # a dense tuple in place of a sparse vector would read its entries as
    # indices
    with pytest.raises(ValueError) as info:
        build(QQ)
    assert str(info.value) == f"{what} must be a dict {{index: scalar}}, not tuple"


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["q", "fp:5"])
@pytest.mark.parametrize("build", [
    lambda f, cols: AlgebraMap(_k2(f), _k2(f), cols),
    lambda f, cols: _action(f, col=cols),
    lambda f, cols: global_action(cyclic(1), _k2(f), [cols]),
    lambda f, cols: _hopf(f, antipode=cols),
    lambda f, cols: _hopf_action(f, cols),
], ids=["AlgebraMap", "make_partial_action", "global_action", "make_hopf",
        "make_partial_hopf_action"])
@pytest.mark.parametrize("cols", [[{0: 1}], [{0: 1}, {1: 1}, {}]], ids=["1", "3"])
def test_a_map_needs_one_column_per_basis_vector(field, build, cols):
    with pytest.raises(ValueError) as info:
        build(field, cols)
    assert str(info.value) == f"map has {len(cols)} columns, domain dimension is 2"


@pytest.mark.parametrize("field, one", [(QQ, 1), (GF(5), 6)], ids=["q", "fp:5"])
def test_sparse_inputs_are_read_canonically(field, one):
    # over F_p any int representative is reduced; a zero is dropped
    pa = _action(field, unit={0: one, 1: one}, marker={0: one, 1: 0},
                 col=[{0: one, 1: 0}, {}])
    assert pa.idempotents == ({0: 1, 1: 1}, {0: 1})
    assert pa.columns[1] == [{0: 1}, {}]


@pytest.mark.parametrize("build", [
    lambda x: make_algebra(QQ, [{0: ((0, x),)}], {0: 1}),
    lambda x: make_algebra(QQ, [{0: ((0, 1),), 1: ((1, 1),)},
                                {0: ((1, 1),), 1: ((0, x),)}], {0: 1}),
    lambda x: make_algebra(QQ, [{0: ((0, 1),)}], {0: x})], ids=["row", "cells", "unit"])
@pytest.mark.parametrize("scalar", [1.0, 0.5, True, "1"])
def test_make_algebra_refuses_inexact_constants_over_q(build, scalar):
    # the shape pass refuses them as the F_p one refuses a non-residue
    with pytest.raises(ValueError, match=re.escape(
            f"scalar {scalar!r} is not an exact rational (an int or a Fraction)")):
        build(scalar)
    assert build(Fraction(1)).unit == {0: 1}


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["q", "fp:5"])
def test_algebra_map_columns_are_canonical_with_int_rows(field):
    kk = product_of_fields(field, 2)
    phi = AlgebraMap(kk, kk, [{0: 6, 1: 0}, {1: -1}])
    assert phi.columns == ([{0: 1}, {1: 4}] if field.characteristic else
                           [{0: 6}, {1: -1}])
    assert AlgebraMap(kk, kk, [{0: 5}, {}]).columns == ([{}, {}] if field.characteristic
                                                         else [{0: 5}, {}])
    for row in (0.0, True, -1, 2):
        with pytest.raises(ValueError, match=r"index outside 0\.\.1"):
            AlgebraMap(kk, kk, [{row: 1}, {1: 1}])
