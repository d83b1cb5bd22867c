from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from partialskew.algebras import (AlgebraMap, StructureAlgebra,
                                  _associativity_witness, _unit_law_failure,
                                  center_basis,
                                  direct_product,
                                  dual_group_algebra, field_algebra,
                                  ideal_basis,
                                  is_central_idempotent, make_algebra,
                                  product_of_fields, subalgebra)
from partialskew.constructions import (group_algebra, matrix_algebra,
                                       tensor_algebra)
from partialskew.errors import (AlgebraMismatch, FieldMismatch, NotAssociative,
                                NotCentralIdempotent, UnitFails,
                                ValidationError)
from partialskew.fields import GF, QQ
from partialskew.groups import cyclic, symmetric
from partialskew.linalg import Subspace

from corpus_helpers import dense_rows, map_matrix, mapping_rows, place
from dense_oracle import (apply, dense, first_nonmultiplicative_pair, identity,
                          to_columns)
from fp_oracle import unwrap, wrap


def test_base_field_algebra():
    k = field_algebra(QQ)
    assert k.dim == 1 and k.unit == {0: QQ.one}


def test_split_algebra():
    kk = product_of_fields(QQ, 2)
    mul = kk.mul
    e0, e1 = {0: 1}, {1: 1}
    assert mul(e0, e0) == e0 and mul(e0, e1) == {}
    assert kk.unit == {0: 1, 1: 1}
    a = {0: 3, 1: -2}
    assert mul(a, kk.unit) == a


def test_matrix_units():
    # brute-force matrix-unit products in the 2x2 matrix algebra
    m2 = matrix_algebra(field_algebra(QQ), 2)
    assert m2.dim == 4
    mul = m2.mul

    def unit(r, s):
        return place(m2, r, s, {0: QQ.one})

    assert mul(unit(0, 0), unit(0, 1)) == unit(0, 1)
    assert mul(unit(0, 1), unit(0, 0)) == {}
    # bilinearity: (E00 + E01)·E11 = E01
    assert mul({**unit(0, 0), **unit(0, 1)}, unit(1, 1)) == unit(0, 1)
    for g in range(2):
        for h in range(2):
            for r in range(2):
                for s in range(2):
                    prod = mul(unit(g, h), unit(r, s))
                    assert prod == (unit(g, s) if h == r else {})


def test_central_idempotents():
    kk = product_of_fields(QQ, 2)
    assert is_central_idempotent(kk, kk.unit)
    assert is_central_idempotent(kk, {0: 1})
    assert not is_central_idempotent(kk, {0: 1, 1: 2})
    m2 = matrix_algebra(field_algebra(QQ), 2)
    e00 = place(m2, 0, 0, {0: QQ.one})
    assert not is_central_idempotent(m2, e00)  # idempotent but witness E01 moves


def test_ideal_basis():
    kk = product_of_fields(QQ, 2)
    assert ideal_basis(kk, kk.unit).dim == kk.dim
    assert ideal_basis(kk, {}).is_zero()
    span = ideal_basis(kk, {0: 1})
    assert list(span.basis) == [{0: 1}]
    with pytest.raises(NotCentralIdempotent):
        ideal_basis(kk, {0: 1, 1: 2})


def test_center_examples():
    kk = product_of_fields(QQ, 3)
    assert center_basis(kk).dim == kk.dim
    m2 = matrix_algebra(field_algebra(QQ), 2)
    c = center_basis(m2)
    assert c.dim == 1 and list(c.basis) == [m2.unit]
    # centers multiply over direct products: M2(Q) x Q^2 has center 1 + 2
    prod = direct_product(m2, product_of_fields(QQ, 2))
    assert prod.dim == 6 and center_basis(prod).dim == 3


def test_group_and_dual_algebras():
    z2 = cyclic(2)
    gq = group_algebra(QQ, z2)
    assert gq.mul({1: 1}, {1: 1}) == gq.unit == {0: 1}
    dual = dual_group_algebra(QQ, z2)
    pe, pg = {0: 1}, {1: 1}
    assert dual.mul(pe, pe) == pe and dual.mul(pe, pg) == {}
    assert dual.unit == {**pe, **pg}

    # trivial group: both constructions collapse to the base field
    t = cyclic(1)
    assert group_algebra(QQ, t).dim == 1 and dual_group_algebra(QQ, t).dim == 1


def test_matrix_algebra_over_group_index():
    kk = product_of_fields(QQ, 2)
    m = matrix_algebra(kk, cyclic(2))
    assert m.dim == 2 * 2 * 2  # n^2 * dim(A)
    assert m.unit == {**place(m, 0, 0, kk.unit), **place(m, 1, 1, kk.unit)}
    assert list(m.unit) == sorted(m.unit)
    k_only = matrix_algebra(field_algebra(QQ), cyclic(1))
    assert k_only.dim == 1


def test_direct_product_embeddings():
    m2 = matrix_algebra(field_algebra(QQ), 2)
    kk = product_of_fields(QQ, 1)
    prod = direct_product(m2, kk)
    assert prod.dim == 5 and center_basis(prod).dim == 2
    # the factors embed multiplicatively: the left one on its own indices,
    # the right one shifted past them
    one = QQ.one
    assert AlgebraMap(m2, prod, [{j: one} for j in range(4)]).is_multiplicative()
    assert AlgebraMap(kk, prod, [{4: one}]).is_multiplicative()
    # three orthogonal central idempotents in (k x k) x k
    triple = direct_product(product_of_fields(QQ, 2), kk)
    idems = [{i: 1} for i in range(3)]
    for i, e in enumerate(idems):
        assert is_central_idempotent(triple, e)
        for j, f in enumerate(idems):
            assert triple.mul(e, f) == (e if i == j else {})
    with pytest.raises(FieldMismatch):
        direct_product(product_of_fields(QQ, 1), product_of_fields(GF(5), 1))


def test_tensor_algebra_componentwise():
    kk = product_of_fields(QQ, 2)
    m2 = matrix_algebra(field_algebra(QQ), 2)
    t = tensor_algebra(kk, m2)
    assert t.dim == 8
    x = {0: 1, 3: 1}     # e0 ⊗ 1, index a·4 + m
    y = {4: 1, 7: 1}     # e1 ⊗ 1
    assert t.mul(x, y) == {}
    assert t.mul(x, x) == x
    assert t.unit == {**x, **y}


def test_algebra_mismatch():
    # a composite needs the inner map to land in the outer map's domain
    a = product_of_fields(QQ, 2)
    b = product_of_fields(QQ, 2)
    with pytest.raises(AlgebraMismatch) as info:
        AlgebraMap(a, a, identity(2)).compose(AlgebraMap(b, b, identity(2)))
    assert str(info.value) == "maps do not compose: the inner codomain is not the outer domain"


def test_subalgebra_extraction():
    kk = product_of_fields(QQ, 3)
    span = Subspace.span(QQ, 3, [{0: 1}, {1: 1}])
    sub = subalgebra(kk, span, {0: 1, 1: 1})
    include = AlgebraMap(sub, kk, span.basis)
    assert sub.dim == 2 and include.is_multiplicative() and include.kernel().is_zero()
    # the corner's unit maps to its generating idempotent, not to 1
    assert include.apply(sub.unit) == {0: 1, 1: 1}


# -- validation gate -----------------------------------------------------

def _dense_mul(field, table):
    """Dense product from the table, in the wrapper arithmetic over F_p."""
    d = len(table)
    table = [[[wrap(field, v) for v in cell] for cell in row] for row in table]

    def mul(x, y):
        x, y = [wrap(field, v) for v in x], [wrap(field, v) for v in y]
        out = [wrap(field, field.zero)] * d
        for i in range(d):
            for j in range(d):
                if x[i] and y[j]:
                    for k in range(d):
                        out[k] = out[k] + x[i] * y[j] * table[i][j][k]
        return tuple(unwrap(v) for v in out)

    basis = [tuple(field.one if i == j else field.zero for j in range(d))
             for i in range(d)]
    return mul, basis


def _first_nonassociative_triple(field, table):
    """Independent oracle: the first basis triple, in (i, j, k) order, where
    associativity fails, from dense products; None when there is none."""
    mul, basis = _dense_mul(field, table)
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            for k, c in enumerate(basis):
                if mul(mul(a, b), c) != mul(a, mul(b, c)):
                    return i, j, k
    return None


def _brute_force_valid(field, table, unit):
    """Independent axiom oracle: associativity and unit law from scratch,
    for the sparse unit."""
    if _first_nonassociative_triple(field, table) is not None:
        return False
    mul, basis = _dense_mul(field, table)
    unit = dense(unit, len(table))
    return all(mul(unit, b) == b and mul(b, unit) == b for b in basis)


def _densify(alg):
    """The d×d×d table of an algebra's sparse product rows."""
    d = alg.dim
    table = [[[alg.field.zero] * d for _ in range(d)] for _ in range(d)]
    for i, row in enumerate(alg.products):
        for j, cell in row.items():
            for k, v in cell:
                table[i][j][k] = v
    return table


def _sparsify(table):
    """Sparse product rows ``{j: cell}`` of a dense table, in the form of
    ``StructureAlgebra.products``, as make_algebra takes them."""
    return mapping_rows([[[(k, v) for k, v in enumerate(cell) if v] for cell in row]
                         for row in table])


def _perturbed(alg, i, j, k):
    """Dense table of alg with one structure constant increased by 1."""
    new = _densify(alg)
    new[i][j][k] = unwrap(wrap(alg.field, new[i][j][k]) + 1)
    return new


def test_make_algebra_rejects_matches_oracle_exhaustive():
    base = group_algebra(QQ, cyclic(2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                table = _perturbed(base, i, j, k)
                expected = _brute_force_valid(QQ, table, base.unit)
                if expected:
                    make_algebra(QQ, _sparsify(table), base.unit)
                else:
                    with pytest.raises(ValidationError):
                        make_algebra(QQ, _sparsify(table), base.unit)


def test_known_perturbation_outcomes():
    base = group_algebra(QQ, cyclic(2))
    # bumping the top-left constant: associativity is checked first
    with pytest.raises(ValidationError):
        make_algebra(QQ, _sparsify(_perturbed(base, 0, 0, 0)), base.unit)
    # x*x = e + x defines a valid commutative quadratic extension
    quad = make_algebra(QQ, _sparsify(_perturbed(base, 1, 1, 1)), base.unit)
    assert _brute_force_valid(QQ, _densify(quad), quad.unit)


def test_unit_fails_witness():
    # an associative table with a wrong declared unit hits the unit check
    kk = product_of_fields(QQ, 2)
    with pytest.raises(UnitFails):
        make_algebra(QQ, kk.products, {0: 1})


def _per_basis_unit_failure(alg):
    """Oracle: the first (i, side) where 1·b_i = b_i = b_i·1 fails, from two
    sparse products per basis element, left before right."""
    unit = alg.unit
    one = alg.field.one
    for i in range(alg.dim):
        b = {i: one}
        if alg.mul(unit, b) != b:
            return i, "left"
        if alg.mul(b, unit) != b:
            return i, "right"
    return None


def _unit_law_algebras(field):
    kk = product_of_fields(field, 2)
    return [kk, group_algebra(field, symmetric(3)),
            matrix_algebra(field_algebra(field), 2),
            matrix_algebra(kk, cyclic(2)), direct_product(kk, field_algebra(field)),
            tensor_algebra(kk, dual_group_algebra(field, cyclic(3)))]


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["q", "fp5"])
def test_unit_law_failure_matches_per_basis_oracle(field):
    for alg in _unit_law_algebras(field):
        assert _unit_law_failure(alg) is None
        assert _per_basis_unit_failure(alg) is None


@pytest.mark.parametrize("unit, expected", [
    # E_11·E_00 = 0: the left law fails first, at E_00
    ([0, 0, 0, 1], (0, "left")),
    # E_00·E_01 = E_01 but E_01·E_00 = 0: the right law fails first, at E_01
    ([1, 0, 0, 0], (1, "right")),
    # 2·1: both sides fail at E_00, and the left is named
    ([2, 0, 0, 2], (0, "left")),
])
def test_unit_law_failure_planted(unit, expected):
    m2 = matrix_algebra(field_algebra(QQ), 2)
    unit = {k: x for k, x in enumerate(unit) if x}
    alg = StructureAlgebra(QQ, m2.products, unit)
    assert _per_basis_unit_failure(alg) == expected
    assert _unit_law_failure(alg) == expected
    with pytest.raises(UnitFails, match=rf"b{expected[0]} \({expected[1]} side\)"):
        make_algebra(QQ, m2.products, unit)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([QQ, GF(5)]), st.integers(0, 5),
       st.lists(st.tuples(st.integers(0, 11), st.integers(-2, 2)), max_size=3))
def test_unit_law_failure_perturbed_units(field, which, changes):
    # the true unit with a few coefficients moved: the first failure falls
    # on either side and at any index
    alg = _unit_law_algebras(field)[which]
    unit = dict(alg.unit)
    for j, delta in changes:
        unit[j % alg.dim] = unit.get(j % alg.dim, 0) + delta
    declared = StructureAlgebra(field, alg.products, field.sparse(unit))
    assert _unit_law_failure(declared) == _per_basis_unit_failure(declared)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([QQ, GF(5)]), st.integers(0, 5), st.integers(0, 5),
       st.integers(0, 5))
def test_make_algebra_matches_oracle_randomized(field, i, j, k):
    base = group_algebra(field, symmetric(3))
    table = _perturbed(base, i, j, k)
    expected = _brute_force_valid(field, table, base.unit)
    witness = _first_nonassociative_triple(field, table)
    actual = True
    try:
        make_algebra(field, _sparsify(table), base.unit)
    except NotAssociative as exc:
        actual = False
        assert exc.witness == tuple(f"b{t}" for t in witness)
    except ValidationError:
        actual = False
        assert witness is None
    assert actual == expected


def test_not_associative_witness():
    # a table that passes the unit law but not associativity
    z4 = group_algebra(QQ, cyclic(4))
    table = _perturbed(z4, 1, 1, 3)
    if not _brute_force_valid(QQ, table, z4.unit):
        with pytest.raises((NotAssociative, UnitFails)):
            make_algebra(QQ, _sparsify(table), z4.unit)


def _s3_partial_smash_ambient(field):
    """The 12-dim non-unital twisted A⊗H of the S₃ trivial-split lift."""
    from partialskew.actions import trivial_from_split
    from partialskew.hopf import build_partial_smash, lift_group_action

    k = product_of_fields(field, 1)
    pa = trivial_from_split(k, k, symmetric(3))
    return build_partial_smash(lift_group_action(pa)).ambient


def _failing_ks(field, table, i, j):
    """Every k with (b_i b_j) b_k != b_i (b_j b_k), from dense products."""
    mul, basis = _dense_mul(field, table)
    a, b = basis[i], basis[j]
    return [k for k, c in enumerate(basis)
            if mul(mul(a, b), c) != mul(a, mul(b, c))]


_SPARSE_TABLES = {
    "s3_partial_smash_ambient": _s3_partial_smash_ambient,
    "fields3_x_z3": lambda f: tensor_algebra(product_of_fields(f, 3),
                                             group_algebra(f, cyclic(3))),
}


@pytest.mark.parametrize("field", [QQ, GF(5)])
@pytest.mark.parametrize("name", sorted(_SPARSE_TABLES))
def test_associativity_witness_on_sparse_tables(name, field):
    # tables with many empty cells; the witness must return the oracle's
    # first failing triple for the table and for perturbations
    alg = _SPARSE_TABLES[name](field)
    d = alg.dim
    assert any(not cell for row in dense_rows(alg.products) for cell in row)
    assert _associativity_witness(alg) is None
    for i, j, k in [(0, 0, 0), (1, 2, 3), (d - 1, 1, d // 2), (d - 1, d - 1, d - 1)]:
        table = _perturbed(alg, i, j, k)
        expected = _first_nonassociative_triple(field, table)
        assert expected is not None
        bad = StructureAlgebra(field, _sparsify(table), None)
        assert _associativity_witness(bad) == expected


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_associativity_witness_takes_smallest_k(field):
    # with b0·b0 bumped by b0 the first failing pair fails at several k;
    # the witness is the smallest of them
    alg = tensor_algebra(product_of_fields(field, 3), group_algebra(field, cyclic(3)))
    table = _perturbed(alg, 0, 0, 0)
    witness = _associativity_witness(
        StructureAlgebra(field, _sparsify(table), None))
    i, j, k = _first_nonassociative_triple(field, table)
    ks = _failing_ks(field, table, i, j)
    assert len(ks) >= 2 and k == ks[0]
    assert witness == (i, j, k)


def test_make_algebra_checks_sparse_shape():
    one = QQ.one
    with pytest.raises(ValueError, match="out of range"):
        make_algebra(QQ, [{0: [(1, one)]}], {0: one})
    with pytest.raises(ValueError, match="zero"):
        make_algebra(QQ, [{0: [(0, one)], 1: []}, {0: [], 1: [(1, one), (0, QQ.zero)]}],
                     {0: 1, 1: 1})
    with pytest.raises(ValueError, match="repeats"):
        make_algebra(QQ, [{0: [(0, one), (0, one)]}], {0: one})
    with pytest.raises(ValueError, match="has a key 1 outside"):
        make_algebra(QQ, [{0: [(0, one)], 1: []}], {0: one})


@pytest.mark.parametrize("field, rows, message", [
    (QQ, [{1: [(0, 1)]}], "product row 0 has a key 1 outside 0..0"),
    (QQ, [{-1: [(0, 1)]}], "product row 0 has a key -1 outside 0..0"),
    (QQ, [{"0": [(0, 1)]}], "product row 0 has a key '0' outside 0..0"),
    (QQ, [{0.0: [(0, 1)]}], "product row 0 has a key 0.0 outside 0..0"),
    (QQ, [{False: [(0, 1)]}], "product row 0 has a key False outside 0..0"),
    (QQ, [{0: [(1, 1)]}], "structure constant index 1 out of range"),
    (QQ, [{0: [(True, 1)]}], "structure constant index True out of range"),
    (QQ, [{0: [(0, 1), (0, 0)]}], "structure constant cell lists a zero"),
    (QQ, [{0: [(0, 1), (0, 1)]}], "structure constant cell repeats an index"),
    (GF(5), [{0: [(0, 6)]}], "scalar 6 is not a residue mod 5"),
    (GF(5), [{0: [(0, -4)]}], "scalar -4 is not a residue mod 5"),
], ids=["key-past-d", "negative-key", "str-key", "float-key", "bool-key", "index",
        "bool-index", "zero", "repeat", "residue-6", "residue-minus-4"])
def test_make_algebra_checks_mapping_rows(field, rows, message):
    # a row {j: cell} is validated key by key: a key or a cell index must
    # be an int in range(d), and a bool is not one
    with pytest.raises(ValueError) as info:
        make_algebra(field, rows, {0: 1})
    assert str(info.value) == message


def test_make_algebra_drops_empty_cells():
    one = QQ.one
    alg = make_algebra(QQ, [{0: [(0, one)], 1: []}, {0: (), 1: [(1, one)]}],
                       {0: 1, 1: 1})
    assert alg.products == ({0: ((0, one),)}, {1: ((1, one),)})
    assert alg.column_index == [[(0, ((0, one),))], [(1, ((1, one),))]]


@pytest.mark.parametrize("rows, message", [
    ([[[(0, 1)], []], [[], [(1, 1)]]], "product row 0 must be a dict {j: cell}, not list"),
    ([{0: [(0, 1)]}, ([], [(1, 1)])], "product row 1 must be a dict {j: cell}, not tuple"),
    ([{0: [(0, 1)]}, None], "product row 1 must be a dict {j: cell}, not NoneType"),
], ids=["list", "tuple", "none"])
def test_make_algebra_refuses_a_row_that_is_not_a_dict(rows, message):
    # a row is a dict {j: cell}; a sequence of d cells is not read
    with pytest.raises(ValueError) as info:
        make_algebra(QQ, rows, {0: 1, 1: 1})
    assert str(info.value) == message


def test_make_algebra_sorts_cells_it_is_given():
    # ℚ[x]/(x² - x - 1) on the basis (1, x), with x·x = x + 1 listed
    # highest index first; builders emit sorted cells, outside input may not
    one = QQ.one
    alg = make_algebra(QQ, [{0: [(0, one)], 1: [(1, one)]},
                            {0: [(1, one)], 1: [(1, one), (0, one)]}], {0: one})
    assert alg.products[1][1] == ((0, one), (1, one))
    assert type(alg.products[0][0]) is tuple
    # a mapping row given out of order is stored in ascending j
    alg = make_algebra(QQ, [{1: [(1, one)], 0: [(0, one)]},
                            {1: [(1, one), (0, one)], 0: [(1, one)]}], {0: one})
    assert [list(row) for row in alg.products] == [[0, 1], [0, 1]]
    assert alg.products[1][1] == ((0, one), (1, one))


@pytest.mark.parametrize("cell, unit", [(6, 1), (-4, 1), (1, 6), (1, -1)])
def test_make_algebra_refuses_non_residues(cell, unit):
    # 6 and -4 stand for 1 in F_5, but stored scalars are canonical residues
    # (a kernel reduces what it computes; a table or unit is taken as given)
    with pytest.raises(ValueError, match="not a residue mod 5"):
        make_algebra(GF(5), [{0: [(0, cell)]}], {0: unit})
    assert make_algebra(GF(5), [{0: [(0, 1)]}], {0: GF(5).parse(6)}).unit == {0: 1}


@pytest.mark.parametrize("index", [1, -1, True, 0.0, "0"])
def test_make_algebra_refuses_a_unit_index_outside_the_algebra(index):
    with pytest.raises(ValueError) as info:
        make_algebra(QQ, [{0: [(0, 1)]}], {index: 1})
    assert str(info.value) == "unit has an index outside 0..0"


def test_make_algebra_stores_the_unit_in_index_order_without_zeros():
    alg = make_algebra(QQ, product_of_fields(QQ, 3).products, {2: 1, 0: 1, 1: 1})
    assert list(alg.unit) == [0, 1, 2]
    assert make_algebra(QQ, [{0: [(0, 1)]}], {0: 1}).unit == {0: 1}


def test_multiplicativity_witness_names_first_pair():
    kk = product_of_fields(QQ, 2)
    double = AlgebraMap(kk, kk, to_columns([[2, 0], [0, 2]]))
    assert not double.is_multiplicative()
    i, j = double._multiplicativity_witness()
    assert (kk.labels[i], kk.labels[j]) == ("e0", "e0")
    ident = AlgebraMap(kk, kk, identity(2))
    assert ident._multiplicativity_witness() is None


def _monomial_map(field, n, size, perm, scale, anti):
    """The sparse columns of M_n(k) → M_size(k), n ≤ size, that sends E_rs
    to c_{σr}/c_{σs}·E_{σr,σs}, an embedding into a corner followed by
    conjugation by the monomial matrix of σ = ``perm`` and c = ``scale``;
    when ``anti`` it is transposed, to c_{σr}/c_{σs}·E_{σs,σr}, an
    anti-homomorphism."""
    p = field.characteristic
    cols = []
    for r in range(n):
        for s in range(n):
            a, b = perm[r], perm[s]
            c = scale[a] * pow(scale[b], -1, p) if p else Fraction(scale[a], scale[b])
            cols.append({(b * size + a) if anti else (a * size + b): c})
    return cols


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([QQ, GF(5)]), st.integers(1, 3), st.integers(0, 1),
       st.booleans(), st.randoms(use_true_random=False),
       st.none() | st.tuples(st.integers(0, 99), st.integers(0, 99), st.integers(1, 4)))
def test_indexed_multiplicativity_walk_matches_the_per_pair_oracle(
        field, n, extra, anti, rng, fault):
    # a monomial (anti-)homomorphism M_n(k) → M_{n+extra}(k), with at most
    # one column changed in one entry: the walk over the nonempty cells of
    # the codomain names the oracle's first failing pair, both ways
    size = n + extra
    dom = matrix_algebra(field_algebra(field), n)
    cod = matrix_algebra(field_algebra(field), size)
    perm = rng.sample(range(size), size)
    scale = [rng.choice([1, 2, 3, 4]) for _ in range(size)]
    cols = _monomial_map(field, n, size, perm, scale, anti)
    if fault is not None:
        j, t, c = fault[0] % dom.dim, fault[1] % cod.dim, fault[2]
        cols[j] = {**cols[j], t: cols[j].get(t, 0) + c}
    phi = AlgebraMap(dom, cod, cols)
    for side in (anti, not anti):
        walk = phi._multiplicativity_witness(anti=side)
        assert walk == first_nonmultiplicative_pair(dom, cod, phi.columns, side)
        if side == anti and fault is None:
            assert walk is None


def test_map_columns_are_checked_against_both_dimensions():
    # a row key outside the codomain would be skipped by some readers of the
    # columns and index out of range in others
    kk = product_of_fields(QQ, 2)
    with pytest.raises(ValueError, match="index outside 0..1"):
        AlgebraMap(kk, kk, [{0: 1}, {5: 1}])
    with pytest.raises(ValueError, match="index outside 0..1"):
        AlgebraMap(kk, kk, [{0: 1}, {-1: 1}])
    with pytest.raises(ValueError, match="3 columns, domain dimension is 2"):
        AlgebraMap(kk, kk, [{0: 1}, {1: 1}, {}])
    with pytest.raises(ValueError, match="1 columns, domain dimension is 2"):
        AlgebraMap(kk, kk, [{0: 1}])


def test_map_between_algebras_over_different_fields_is_refused():
    # the columns would be read over the domain's field and multiplied in
    # the codomain's: refused by field, before the columns are looked at
    kq, k5 = product_of_fields(QQ, 2), product_of_fields(GF(5), 2)
    with pytest.raises(FieldMismatch) as info:
        AlgebraMap(kq, k5, [{0: 1}, {1: 1}])
    assert str(info.value) == f"field mismatch: {QQ} vs {GF(5)}"
    with pytest.raises(FieldMismatch):
        AlgebraMap(k5, kq, [{0: 1}])
    assert AlgebraMap(k5, k5, [{0: 1}, {1: 1}]).is_multiplicative()


def test_map_applies_its_sparse_columns():
    # the sparse route against the dense matrix of the same map, over F_5
    # with unreduced representatives in the columns
    field = GF(5)
    kk = product_of_fields(field, 3)
    columns = [{0: 7, 2: 5}, {}, {1: -1, 2: 3}]
    phi = AlgebraMap(kk, kk, columns)
    assert phi.columns == [{0: 2}, {}, {1: 4, 2: 3}]
    m = map_matrix(phi)
    for vec in [(1, 2, 3), (0, 4, 0), (0, 0, 0), (4, 4, 4)]:
        got = phi.apply({i: x for i, x in enumerate(vec) if x})
        assert dense(got, 3) == apply(field, m, vec)


# -- sparse builders against an independent dense route --------------------

def _assert_rows_match(alg, dense_product):
    """Every cell of alg's sparse rows equals dense_product(i, j)."""
    table = _densify(alg)
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert tuple(table[i][j]) == tuple(dense_product(i, j)), (i, j)


def _outer(field, u, v):
    return [unwrap(wrap(field, a) * b) for a in u for b in v]


@pytest.mark.parametrize("field", [QQ, GF(5)])
@pytest.mark.parametrize("factors", [
    lambda f: (product_of_fields(f, 2), group_algebra(f, cyclic(3))),
    lambda f: (group_algebra(f, symmetric(3)), dual_group_algebra(f, symmetric(3))),
])
def test_tensor_rows_match_factorwise_products(field, factors):
    # (a⊗b)(c⊗d) = ac⊗bd, from the factors' own multiplication
    left, right = factors(field)
    t = tensor_algebra(left, right)
    dr = right.dim

    def dense_product(p, q):
        (a, b), (c, d) = divmod(p, dr), divmod(q, dr)
        return _outer(field, dense(left.mul({a: 1}, {c: 1}), left.dim),
                      dense(right.mul({b: 1}, {d: 1}), right.dim))

    _assert_rows_match(t, dense_product)


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_matrix_rows_match_matrix_unit_rule(field):
    # E_{gh}x · E_{rs}y = [h = r] E_{gs}xy
    base = product_of_fields(field, 2)
    grp = symmetric(3)
    m = matrix_algebra(base, grp)
    n, d = grp.order, base.dim

    def dense_product(p, q):
        (gh, x), (rs, y) = divmod(p, d), divmod(q, d)
        (g, h), (r, s) = divmod(gh, n), divmod(rs, n)
        out = [field.zero] * m.dim
        if h == r:
            for k, v in base.mul({x: 1}, {y: 1}).items():
                out[(g * n + s) * d + k] = v
        return out

    _assert_rows_match(m, dense_product)
