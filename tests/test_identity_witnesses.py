"""The accumulator identity checks against per-product oracles.

* ``algebras._residues``, the skeleton of the walks below but
  associativity, yields a planted identity's failing tuples in tuple order
  and fills no accumulator past the outer index of the last one taken.
* ``algebras._associativity_witness`` collects (b_i b_j)b_k − b_i(b_j b_k)
  for every (i, k) in one accumulator per middle index j;
  ``_pairwise_associativity_witness`` keeps one accumulator per pair (i, j)
  and returns at the first failing pair; both must name the same first
  triple, which is also the dense oracle's.
* ``AlgebraMap._multiplicativity_witness`` collects φ(b_i b_j) − φ(b_i)φ(b_j)
  for every j in one accumulator per i; ``_pairwise_witness`` compares the
  two sides pair by pair, with the codomain's own sparse product (through
  the factors for a tensor codomain), and must name the same first pair.
* ``MatrixAlgebra._verify`` collects E_gh·E_rs − δ_hr·E_gs for every (r, s)
  in one accumulator per (g, h); ``_first_unit_relation_failure`` forms
  each of the n⁴ products on its own.
* The Hopf layer: ``hopf._verify_exchange_identity`` keeps one accumulator
  per (a, b), keyed (c·d + x)·d + r, and composes no operator; the corner
  exchange lemma of ``build_corner_maps`` one per a, keyed (i·d + j)·D + t;
  the comodule ``multiplicative`` sub-check of ``partial_smash_report`` one
  per corner vector a, keyed b·D + t; ``module_law`` one per p_m, keyed
  (a·n + b)·D + t; axioms 1 and 3 of ``make_partial_hopf_action`` one per
  b_i.  Each retired per-tuple loop is kept here as an oracle, and planted
  failures on the lifts of the fixtures and of S₃, and on the rescaled
  k[G], must be named by the same first tuple and message.
* The partial-action layer: ``make_partial_action`` reads the sparse columns
  of each α_g, spans each meet D_a ∩ D_b as A·1_a1_b, checks Axiom II as
  α_g(1_{g⁻¹}1_h) = 1_g1_{gh}, and its multiplicativity check on the
  source ideal keeps one accumulator per source basis vector; the
  Lemma 1 identities of ``dot_identities_report`` read multiplicativity
  off ``AlgebraMap(A, A, α_g)`` and keep one accumulator per (g, i),
  (g, h) or g for the others.  The retired loops on the dense maps are oracles
  here, and actions built directly from a tampered α_g column must give
  the same exception message and the same ``CheckResult``s.
"""

from itertools import islice

from hypothesis import given, settings, strategies as st
import pytest

from partialskew import actions, algebras, hopf
from partialskew.actions import PartialAction, make_partial_action
from partialskew.algebras import (AlgebraMap, StructureAlgebra,
                                  _associativity_witness, _lincomb, _residues,
                                  field_algebra, ideal_basis,
                                  is_central_idempotent, make_algebra,
                                  product_of_fields)
from partialskew.constructions import (TensorAlgebra, group_algebra,
                                       matrix_algebra, tensor_algebra)
from partialskew.errors import (Axiom1Fails, Axiom2Fails, Axiom3Fails,
                                AxiomIFails, AxiomIIFails, AxiomIIIFails,
                                InternalCheckFailed, NotAssociative,
                                NotCentralIdempotent, NotIsoOnIdeal, ValidationError)
from partialskew.fields import GF, QQ
from partialskew.groups import cyclic, symmetric
from partialskew.hopf import (HopfData, PartialSmash, _on_leg,
                              _verify_exchange_identity, build_corner_maps,
                              build_partial_smash, build_representations, group_hopf,
                              make_hopf, make_partial_hopf_action, partial_smash_report)
from partialskew.lemma1 import dot_identities_report
from partialskew.linalg import Subspace
from partialskew.report import FAIL, PASS, CheckResult
from partialskew.scenarios import (build_action, build_algebra, build_group,
                                   bundled_fixtures, fixture_path, load_scenario,
                                   run_scenario)

from corpus_helpers import action_matrices, dense_rows, mapping_rows
from dense_oracle import (apply, basis_of, dense, identity, intersect, multiply,
                          span_of, to_rows, unit_vector)
from test_algebras import (_dense_mul, _densify, _first_nonassociative_triple,
                           _sparsify)
from test_golden_reports import INLINE
from test_hopf import _first_exchange_failure

FIELDS = (QQ, GF(5), GF(2))
FIELD_IDS = ("q", "fp5", "fp2")


# -- the skeleton ------------------------------------------------------------

def test_residues_yield_failing_tuples_in_order_and_stop_at_the_last_taken():
    # five failing (outer, inner) tuples, planted in reverse, each at two
    # keys, beside entries that reduce to zero in F_5
    field, width = GF(5), 3
    failing = [(0, 2), (1, 0), (1, 4), (3, 1), (4, 0)]
    filled = []

    def fill(acc, o):
        filled.append(o)
        for inner in range(6):
            acc[inner * width + 1] = 5
        for f, inner in reversed(failing):
            if f == o:
                for t in (2, 0):
                    acc[inner * width + t] = 1

    assert list(_residues(field, range(6), fill, width)) == failing
    assert filled == list(range(6))
    filled.clear()
    assert list(islice(_residues(field, range(6), fill, width), 3)) == failing[:3]
    assert filled == [0, 1]
    filled.clear()
    assert next(_residues(field, range(6), fill, width)) == failing[0]
    assert filled == [0]
    # with a split, each inner index is read as divmod(inner, split)
    assert list(_residues(field, range(6), fill, width, 2)) == [
        (o, *divmod(inner, 2)) for o, inner in failing]


# -- associativity -----------------------------------------------------------

def _pairwise_associativity_witness(alg):
    """First (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k), or None: for each
    pair (i, j) one accumulator, keyed k·d + n, over the rows b_i b_j reaches
    and the nonempty cells of row j; the first failing pair decides."""
    sparse = alg.field.sparse
    d = alg.dim
    nz = dense_rows(alg.products)
    cells = [[(k * d, cell) for k, cell in enumerate(row) if cell] for row in nz]
    for i in range(d):
        nzi = nz[i]
        for j in range(d):
            acc = {}
            get = acc.get
            for m, c in nzi[j]:
                for base, cell in cells[m]:
                    for n, v in cell:
                        acc[base + n] = get(base + n, 0) + c * v
            for base, cell in cells[j]:
                for m, c in cell:
                    for n, v in nzi[m]:
                        acc[base + n] = get(base + n, 0) - c * v
            bad = sparse(acc)
            if bad:
                return i, j, min(bad) // d
    return None


def _table_key(products):
    """A hashable copy of product rows, to collect each table once."""
    return tuple(tuple(row.items()) for row in products)


def _bumped(alg, i, j, k):
    """alg's product rows with the coefficient of b_k in b_i·b_j raised by
    one (over F_2 a coefficient 1 drops out)."""
    rows = dense_rows(alg.products)
    cell = dict(rows[i][j])
    cell[k] = cell.get(k, 0) + 1
    rows[i][j] = tuple(sorted(alg.field.sparse(cell).items()))
    return rows


def _positions(alg):
    """Cells to perturb: the corners, an interior cell, the first entry of
    the first nonempty cell of the middle row, and its first empty cell."""
    d = alg.dim
    mid = dense_rows(alg.products)[d // 2]
    out = [(0, 0, 0), (d - 1, d - 1, d - 1), (d // 2, d // 3, (d - 1) // 2)]
    out += [(d // 2, j, cell[0][0]) for j, cell in enumerate(mid) if cell][:1]
    out += [(d // 2, j, d - 1) for j, cell in enumerate(mid) if not cell][:1]
    return out


def _make_algebra_witness(field, rows):
    """The index triple ``make_algebra`` names for non-unital rows, or None
    when it accepts them."""
    try:
        make_algebra(field, rows, None)
    except NotAssociative as exc:
        return tuple(int(label[1:]) for label in exc.witness)
    return None


@pytest.mark.parametrize("field", ["q", "fp:5", "fp:2"])
def test_every_associativity_check_matches_pairwise_oracle(monkeypatch, field):
    # every table make_algebra receives from the corpus and both S₃
    # documents, as given and with one perturbed cell
    tables = {}
    witness = algebras._associativity_witness

    def spy(alg):
        got = witness(alg)
        tables.setdefault(_table_key(alg.products), (alg, got))
        return got

    monkeypatch.setattr(algebras, "_associativity_witness", spy)
    sources = [fixture_path(name) for name in bundled_fixtures()] + list(INLINE.values())
    for source in sources:
        assert run_scenario(source, field_override=field).passed()
    monkeypatch.undo()
    # the largest is the matrix algebra of s3_regular_restrict.json
    assert max(alg.dim for alg, _ in tables.values()) == 108
    failing = 0
    for alg, got in tables.values():
        assert got is None and _pairwise_associativity_witness(alg) is None
        for i, j, k in _positions(alg):
            rows = _bumped(alg, i, j, k)
            expected = _pairwise_associativity_witness(
                StructureAlgebra(alg.field, mapping_rows(rows), None))
            assert witness(StructureAlgebra(alg.field, mapping_rows(rows), None)) == expected
            assert _make_algebra_witness(alg.field, mapping_rows(rows)) == expected
            failing += expected is not None
    assert failing > len(tables)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_first_failure_at_a_later_middle_index_is_named(field):
    # k³ with e_2·e_0 = e_1: the triples (2, 0, 0) and (2, 0, 1) fail at
    # j = 0, but (1, 2, 0) comes first: (e_1 e_2) e_0 = 0, e_1 (e_2 e_0) = e_1
    one = field.one
    rows = [[((i, one),) if i == j else () for j in range(3)] for i in range(3)]
    rows[2][0] = ((1, one),)
    alg = StructureAlgebra(field, mapping_rows(rows), None)
    mul, basis = _dense_mul(field, _densify(alg))
    failures = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)
                if mul(mul(basis[i], basis[j]), basis[k])
                != mul(basis[i], mul(basis[j], basis[k]))]
    assert failures[0] == (1, 2, 0) and (2, 0, 0) in failures
    assert _associativity_witness(alg) == (1, 2, 0)
    assert _pairwise_associativity_witness(alg) == (1, 2, 0)
    with pytest.raises(NotAssociative) as info:
        make_algebra(field, mapping_rows(rows), None)
    assert str(info.value) == "algebra is not associative at triple (b1, b2, b0)"


_BASES = {
    "s3": lambda f: group_algebra(f, symmetric(3)),
    "z3": lambda f: group_algebra(f, cyclic(3)),
    "kkk": lambda f: product_of_fields(f, 3),
    "m2": lambda f: matrix_algebra(field_algebra(f), 2),
    "kz2_x_kk": lambda f: tensor_algebra(group_algebra(f, cyclic(2)),
                                         product_of_fields(f, 2)),
}


@st.composite
def _perturbed_tables(draw):
    """(field, dense table): a small algebra with one or two cells replaced
    by sparse vectors of small representatives."""
    field = draw(st.sampled_from(FIELDS))
    alg = _BASES[draw(st.sampled_from(sorted(_BASES)))](field)
    d = alg.dim
    table = _densify(alg)
    index = st.integers(0, d - 1)
    cells = draw(st.dictionaries(
        st.tuples(index, index), st.dictionaries(index, st.integers(-2, 2), max_size=2),
        min_size=1, max_size=2))
    for (i, j), vec in cells.items():
        table[i][j] = [field.reduce(vec.get(k, 0)) for k in range(d)]
    return field, table


@settings(max_examples=80, deadline=None)
@given(_perturbed_tables())
def test_witness_matches_dense_oracle_on_perturbed_tables(inst):
    field, table = inst
    alg = StructureAlgebra(field, _sparsify(table), None)
    expected = _first_nonassociative_triple(field, table)
    assert _associativity_witness(alg) == expected
    assert _pairwise_associativity_witness(alg) == expected


def _pairwise_witness(phi, anti=False):
    """First (i, j) where φ(b_i b_j) and φ(b_i)φ(b_j) (φ(b_j)φ(b_i) when
    ``anti``) differ, one sparse product per pair, or None."""
    field = phi.codomain.field
    cols = phi.columns
    mul = phi.codomain.mul
    for i, row in enumerate(dense_rows(phi.domain.products)):
        ci = cols[i]
        for j, cell in enumerate(row):
            rhs = mul(cols[j], ci) if anti else mul(ci, cols[j])
            if _lincomb(field, ((v, cols[k]) for k, v in cell)) != rhs:
                return i, j
    return None


@pytest.mark.parametrize("field", ["q", "fp:5", "fp:2"])
def test_every_witness_call_matches_pairwise_oracle(monkeypatch, field):
    calls = []
    witness = AlgebraMap._multiplicativity_witness

    def spy(self, anti=False):
        got = witness(self, anti)
        calls.append((self, anti, got))
        return got

    monkeypatch.setattr(AlgebraMap, "_multiplicativity_witness", spy)
    sources = [fixture_path(name) for name in bundled_fixtures()] + list(INLINE.values())
    for source in sources:
        assert run_scenario(source, field_override=field).passed()
    assert any(anti for _, anti, _ in calls)
    assert any(isinstance(phi.codomain, TensorAlgebra) for phi, _, _ in calls)
    # the largest is the matrix algebra of s3_regular_restrict.json
    assert max(phi.domain.dim for phi, _, _ in calls) == 108
    for phi, anti, got in calls:
        assert got == _pairwise_witness(phi, anti)


def _perturbed(columns, j, vec):
    """``columns`` with vec added to column j."""
    out = [dict(col) for col in columns]
    for k, v in vec.items():
        out[j][k] = out[j].get(k, 0) + v
    return out


def _checked(phi, anti=False):
    got = phi._multiplicativity_witness(anti)
    assert got == _pairwise_witness(phi, anti)
    return got


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_perturbed_column_is_named(field):
    alg = group_algebra(field, symmetric(3))
    one = field.one
    ident = [{i: one} for i in range(alg.dim)]
    assert _checked(AlgebraMap(alg, alg, ident)) is None
    for j in range(alg.dim):
        # φ(b_j) becomes b_j + e, b_j + b_{j+1} or 2·b_j (0 over F_2)
        for vec in ({0: one}, {(j + 1) % alg.dim: one}, {j: one}):
            assert _checked(AlgebraMap(alg, alg, _perturbed(ident, j, vec))) is not None


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_zero_column_with_nonzero_product_is_named(field):
    # φ(g) = 0 but φ(g·g) = φ(e) = 1 on k[Z2] → k: the pair (g, g) fails
    # although neither of its columns contributes a product term
    kz2 = group_algebra(field, cyclic(2))
    phi = AlgebraMap(kz2, field_algebra(field), [{0: field.one}, {}])
    assert _checked(phi) == (1, 1)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_anti_map_with_swapped_columns_is_named(field):
    group = symmetric(3)
    alg = group_algebra(field, group)
    one = field.one
    inverse = [{group.inv(g): one} for g in range(group.order)]
    # inversion reverses products: an anti-map, not a map (S3 is not abelian)
    assert _checked(AlgebraMap(alg, alg, inverse), anti=True) is None
    assert _checked(AlgebraMap(alg, alg, inverse)) is not None
    for a in range(1, group.order):
        for b in range(a + 1, group.order):
            swapped = list(inverse)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            assert _checked(AlgebraMap(alg, alg, swapped), anti=True) is not None


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("nested", [False, True], ids=["hh", "hhh"])
def test_tensor_codomain_is_named(field, nested):
    # g ↦ g⊗g (g ↦ g⊗g⊗g) is multiplicative on k[S3]
    alg = group_algebra(field, symmetric(3))
    d = alg.dim
    codomain = tensor_algebra(alg, tensor_algebra(alg, alg) if nested else alg)
    width = d * d if nested else d
    diag = [{g * width + (g * d + g if nested else g): field.one} for g in range(d)]
    assert _checked(AlgebraMap(alg, codomain, diag)) is None
    for j in range(d):
        assert _checked(AlgebraMap(alg, codomain, _perturbed(diag, j, {1: field.one}))) \
            is not None


@st.composite
def _perturbed_maps(draw):
    """(φ, anti): the identity or inversion on a small algebra, with one
    column changed by a sparse vector of small representatives."""
    field = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from(["s3", "z3", "kk", "m2"]))
    one = field.one
    if kind in ("s3", "z3"):
        group = symmetric(3) if kind == "s3" else cyclic(3)
        alg = group_algebra(field, group)
        inverse = draw(st.booleans())
        cols = [{group.inv(g) if inverse else g: one} for g in range(group.order)]
    else:
        alg = (product_of_fields(field, 2) if kind == "kk"
               else matrix_algebra(field_algebra(field), 2))
        cols = [{i: one} for i in range(alg.dim)]
    j = draw(st.integers(0, alg.dim - 1))
    vec = draw(st.dictionaries(st.integers(0, alg.dim - 1), st.integers(-3, 3),
                               max_size=2))
    return AlgebraMap(alg, alg, _perturbed(cols, j, vec)), draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(_perturbed_maps())
def test_witness_matches_pairwise_oracle_on_perturbed_maps(inst):
    phi, anti = inst
    _checked(phi, anti)


# -- matrix units ----------------------------------------------------------

def _first_unit_relation_failure(m):
    """First (g, h, r, s) where E_gh·E_rs differs from δ_hr·E_gs, one sparse
    product per quadruple, or None."""
    n = m.size
    base_unit = m.base.unit
    eu = [[{m.slot(g, h, i): v for i, v in base_unit.items()}
           for h in range(n)] for g in range(n)]
    for g in range(n):
        for h in range(n):
            for r in range(n):
                for s in range(n):
                    want = eu[g][s] if h == r else {}
                    if m.mul(eu[g][h], eu[r][s]) != want:
                        return g, h, r, s
    return None


def _tamper(m, cells):
    """Replace the cells ``{(x, y): cell}`` of m's table."""
    m.products = mapping_rows(
        [cells.get((i, j), c) for j, c in enumerate(row)]
        for i, row in enumerate(dense_rows(m.products)))


def _assert_verify_names(m):
    first = _first_unit_relation_failure(m)
    assert first is not None
    with pytest.raises(InternalCheckFailed) as info:
        m._verify()
    g, h, r, s = first
    assert str(info.value) == f"matrix-unit relation fails at ({g},{h})x({r},{s})"


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("tampers", [
    # E_12 e0 · E_20 e0 should be E_10 e0
    {((1, 2, 0), (2, 0, 0)): ((1, 0, 1),)},
    # E_01 e0 · E_22 e1 should be 0
    {((0, 1, 0), (2, 2, 1)): ((0, 0, 0),)},
    # E_22 e1 · E_21 e1 loses its term
    {((2, 2, 1), (2, 1, 1)): ()},
    # E_00 e0 · E_00 e0 gains a second term
    {((0, 0, 0), (0, 0, 0)): ((0, 0, 0), (2, 2, 1))},
    # two failing (r, s) under one (g, h): (0,1)x(1,2) is named, not (0,1)x(2,0)
    {((0, 1, 0), (2, 0, 1)): ((0, 0, 1),), ((0, 1, 0), (1, 2, 0)): ()},
], ids=["wrong-entry", "nonzero-off-diagonal", "lost-term", "extra-term",
        "two-in-one-row"])
def test_tampered_matrix_unit_is_named(field, tampers):
    m = matrix_algebra(product_of_fields(field, 2), 3)
    _tamper(m, {(m.slot(*x), m.slot(*y)): tuple((m.slot(*k), field.one) for k in cell)
                for (x, y), cell in tampers.items()})
    _assert_verify_names(m)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["q", "fp5"])
def test_matrix_units_over_a_unit_that_is_not_a_basis_vector(field):
    # k with basis b = 2·1: b·b = 2b and 1 = b/2, so E_gh = E_{g,h}⊗b/2 and
    # every product term carries the unit coefficient twice
    half = field.parse("1/2")
    base = make_algebra(field, [{0: ((0, field.parse("2")),)}], {0: half})
    m = matrix_algebra(base, 3)
    assert m._verify() is None
    _tamper(m, {(m.slot(1, 2, 0), m.slot(2, 0, 0)): ((m.slot(1, 1, 0), field.one),)})
    _assert_verify_names(m)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_random_tamper_matches_per_product_oracle(field, data):
    m = matrix_algebra(product_of_fields(field, 2), 3)
    index = st.integers(0, m.dim - 1)
    cells = data.draw(st.dictionaries(
        st.tuples(index, index),
        st.dictionaries(index, st.integers(1, 4), max_size=2), min_size=1, max_size=2))
    _tamper(m, {xy: tuple(sorted(field.sparse(cell).items()))
                for xy, cell in cells.items()})
    if _first_unit_relation_failure(m) is not None:
        _assert_verify_names(m)
    else:
        # the matrix-unit relations do not see the change; the unit law may
        try:
            m._verify()
        except InternalCheckFailed as exc:
            assert str(exc) == "matrix algebra unit law fails"


# -- the exchange identity ---------------------------------------------------

def _rescaled_group_hopf(field, group, c):
    """k[G] on the basis b_g = c_g·g, c_g = c(g) a nonzero int:
    b_g b_h = (c_g c_h / c_gh)·b_gh, Δ(b_g) = b_g⊗b_g / c_g, ε(b_g) = c_g
    and S(b_g) = (c_g / c_g⁻¹)·b_g⁻¹, so Δ, S and the product of the dual
    have coefficients other than 1."""
    n, e = group.order, group.identity

    def q(a, b):
        return field.parse(f"{a}/{b}")

    products = [{h: ((group.mul(g, h), q(c(g) * c(h), c(group.mul(g, h)))),)
                 for h in range(n)} for g in range(n)]
    alg = make_algebra(field, products, {e: q(1, c(e))})
    comul = [[(g, g, q(1, c(g)))] for g in range(n)]
    counit = {g: field.parse(c(g)) for g in range(n)}
    antipode = [{group.inv(j): q(c(j), c(group.inv(j)))} for j in range(n)]
    return make_hopf(alg, comul, counit, antipode)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["q", "fp5"])
def test_exchange_identity_on_a_rescaled_basis(field):
    h = _rescaled_group_hopf(field, symmetric(3), lambda g: g % 4 + 1)
    assert any(v != field.one for row in h.comul for _, _, v in row)
    assert any(v != field.one for row in h.dual().comul for _, _, v in row)
    assert _first_exchange_failure(h) is None
    _verify_exchange_identity(h, hopf._basis_operators(h))
    # with an identity antipode on the dual the identity fails; the sparse
    # check names the dense oracle's first triple
    dual = h.dual()
    ident = [{i: field.one} for i in range(h.dim)]
    h._dual = HopfData(dual.algebra, dual.comul, dual.counit, ident, ident)
    first = _first_exchange_failure(h)
    assert first is not None
    with pytest.raises(InternalCheckFailed) as info:
        _verify_exchange_identity(h, hopf._basis_operators(h))
    assert str(info.value) == "exchange identity fails at basis ({},{},{})".format(*first)


def test_exchange_identity_keeps_d2_accumulators(monkeypatch):
    # no operator is composed: the only reductions are one per column of the
    # d operators ρ(g_c#1) and one per b_a ↼ S(p_u) (2·d² _lincomb calls),
    # and one per accumulator (a, b): 36 on k[S3], where composing the
    # operators made 432 compositions of d reductions each
    h = group_hopf(QQ, symmetric(3))
    d = h.dim
    ops = hopf._basis_operators(h)
    h.dual()
    counts = {"lincomb": 0, "sparse": 0}
    lincomb, sparse = hopf._lincomb, QQ.sparse

    def counting_lincomb(field, terms):
        counts["lincomb"] += 1
        return lincomb(field, terms)

    def counting_sparse(acc):
        counts["sparse"] += 1
        return sparse(acc)

    monkeypatch.setattr(hopf, "_lincomb", counting_lincomb)
    monkeypatch.setattr(QQ, "sparse", counting_sparse)
    _verify_exchange_identity(h, ops)
    assert not hasattr(hopf, "_compose")
    assert counts["lincomb"] == 2 * d * d
    assert counts["sparse"] - counts["lincomb"] == d * d == 36


# -- the Hopf-layer identity checks ---------------------------------------
#
# Each oracle below is the per-tuple loop the accumulator replaced: it forms
# both sides of every tuple with sparse products and compares them, in the
# same order.  The instances are the lifts of the five fixtures and of the
# S₃ split document, and the same actions over the rescaled basis of k[G]
# (``_rescaled_group_hopf``), over Q, F_5 and F_2.

def _scale(field):
    """c(g) for the rescaled basis: nonzero in ``field``."""
    return (lambda g: 2 * (g % 2) + 1) if field.characteristic == 2 else (lambda g: g % 4 + 1)


def _partial_actions(field):
    """(name, partial action) for the bundled fixtures and the S₃ split."""
    docs = [load_scenario(fixture_path(name)) for name in bundled_fixtures()]
    docs.append(INLINE["s3_split"])
    out = []
    for doc in docs:
        algebra = build_algebra(field, doc["algebra"]) if "algebra" in doc else None
        out.append((doc["name"], build_action(field, build_group(doc["group"]),
                                              algebra, doc["action"])))
    return out


def _lifts(field):
    """(name, H, A, sparse action columns) for every instance, group Hopf
    algebras first, then the rescaled ones."""
    actions = _partial_actions(field)
    out = [(name, group_hopf(field, pa.group), pa.algebra, list(pa.columns))
           for name, pa in actions]
    c = _scale(field)
    for name, pa in actions:
        h = _rescaled_group_hopf(field, pa.group, c)
        acts = [[field.sparse({r: c(g) * x for r, x in col.items()}) for col in cols]
                for g, cols in enumerate(pa.columns)]
        out.append((f"{name}/rescaled", h, pa.algebra, acts))
    return out


def _actions(field):
    """(name, validated partial Hopf action) for every instance."""
    return [(name, make_partial_hopf_action(h, alg, acts))
            for name, h, alg, acts in _lifts(field)]


def _composed_exchange_failure(h, ops):
    """First (a, b, c) where λ(b_a#p_b)ρ(g_c#1) and Σ ρ(g_w#1)λ((b_a↼S(g_u))#p_b)
    differ, composing the operators of each triple, or None."""
    dual, d, field = h.dual(), h.dim, h.algebra.field
    lam, rho = ops

    def compose(p, q):
        # p∘q: q first
        return [_lincomb(field, ((c, p[r]) for r, c in col.items())) for col in q]

    def op_sum(terms):
        return [_lincomb(field, ((c, op[x]) for c, op in terms)) for x in range(d)]

    unit = h.algebra.unit
    rho_g = [op_sum([(u, rho[c][i]) for i, u in unit.items()]) for c in range(d)]
    s_g = dual.antipode
    for a in range(d):
        twisted = [_lincomb(field, ((c, h.right_hits[m][a]) for m, c in s.items()))
                   for s in s_g]
        for b in range(d):
            for c in range(d):
                rhs = op_sum([(m * x, compose(rho_g[w], lam[t][b]))
                              for u, w, m in dual.comul[c] for t, x in twisted[u].items()])
                if compose(lam[a][b], rho_g[c]) != rhs:
                    return a, b, c
    return None


def _raised(fn, *args):
    """The message of the InternalCheckFailed ``fn(*args)`` raises, or None."""
    try:
        fn(*args)
    except InternalCheckFailed as exc:
        return str(exc)
    return None


def _tampered_operators(ops, t, b, x, field):
    """A copy of ``ops`` with column x of λ(b_t#p_b) changed by b_0."""
    lam, rho = ops
    lam = [[list(op) for op in row] for row in lam]
    col = dict(lam[t][b][x])
    col[0] = col.get(0, 0) + 1
    lam[t][b][x] = field.sparse(col)
    return lam, rho


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_exchange_identity_matches_composed_oracle(field):
    failing = 0
    hopfs = {(h.comul, _table_key(h.algebra.products)): h for _, h, _, _ in _lifts(field)}
    assert max(h.dim for h in hopfs.values()) == 6
    for h in hopfs.values():
        d = h.dim
        ops = hopf._basis_operators(h)
        assert _composed_exchange_failure(h, ops) is None
        assert _raised(_verify_exchange_identity, h, ops) is None
        for t, b, x in {(0, 0, 0), (d - 1, d - 1, d - 1), (d // 2, d // 3, (d - 1) // 2)}:
            bad = _tampered_operators(ops, t, b, x, field)
            first = _composed_exchange_failure(h, bad)
            want = None if first is None else \
                "exchange identity fails at basis ({},{},{})".format(*first)
            assert _raised(_verify_exchange_identity, h, bad) == want
            failing += first is not None
        # an identity antipode on the dual, as in the rescaled-basis test
        dual = h.dual()
        ident = [{i: field.one} for i in range(d)]
        tampered = HopfData(h.algebra, h.comul, h.counit, h.antipode, h.antipode_inv)
        tampered._dual = HopfData(dual.algebra, dual.comul, dual.counit, ident, ident)
        first = _composed_exchange_failure(tampered, ops)
        assert (first is None) == (dual.antipode == ident)
        want = None if first is None else \
            "exchange identity fails at basis ({},{},{})".format(*first)
        assert _raised(_verify_exchange_identity, tampered, ops) == want
        failing += first is not None
    assert failing >= 2 * len(hopfs)


def _corner_lemma_failure(pha, phi, lam_columns):
    """First (a, i, j) where φ(1)ψ(b_i#p_j)φ(a_a) and Σ φ(b_k·a_a)ψ(b_l#p_j)
    differ, with ψ formed from ``lam_columns``, two products per tuple; or
    None."""
    h, alg = pha.hopf, pha.algebra
    d, dd, field = h.dim, h.dim * h.dim, alg.field
    one_a = alg.unit
    psi = [field.sparse({a * dd + e: u * c for a, u in one_a.items() for e, c in col.items()})
           for col in lam_columns]
    mul = phi.codomain.mul
    unit = phi.apply(alg.unit)
    phi_cols = phi.columns
    for a in range(alg.dim):
        phi_ka = [_lincomb(field, ((c, phi_cols[t]) for t, c in pha.acts[k][a].items()))
                  for k in range(d)]
        for i in range(d):
            for j in range(d):
                rhs = _lincomb(field, ((v, mul(phi_ka[k], psi[l * d + j]))
                                       for k, l, v in h.comul[i]))
                if mul(unit, mul(psi[i * d + j], phi_cols[a])) != rhs:
                    return a, i, j
    return None


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_corner_exchange_lemma_matches_per_tuple_oracle(field):
    # ψ(b_i#p_j) = 1⊗λ(b_i#p_j) with λ(b_i#p_j) changed by λ(b_k#p_l), at
    # one (i, j) and at three at once; φ does not read λ, so only the
    # exchange lemma sees the change
    failing = 0
    for _, pha in _actions(field):
        lam = build_representations(pha.hopf)
        phi, _ = build_corner_maps(pha, lam)
        cols = lam.columns
        assert _corner_lemma_failure(pha, phi, cols) is None
        n = len(cols)
        changes = [(0, n - 1), (n - 1, 0), (n // 2, n // 3)]
        for subset in [[change] for change in changes] + [changes]:
            bad = list(cols)
            for ij, kl in subset:
                bad[ij] = _lincomb(field, [(1, cols[ij]), (1, cols[kl])])
            fake = AlgebraMap(lam.domain, lam.codomain, bad)
            first = _corner_lemma_failure(pha, phi, bad)
            want = None if first is None else \
                "corner exchange lemma fails at (a={}, h={}, f={})".format(*first)
            assert _raised(build_corner_maps, pha, fake) == want
            failing += first is not None
    assert failing >= 12


def _psmash_oracle(ps):
    """The first witnesses of the comodule ``multiplicative`` and the
    ``module_law`` sub-checks, one product per pair and per triple."""
    h = ps.pha.hopf
    d, dual, amb = h.dim, h.dual(), ps.ambient
    field, mul = amb.field, amb.mul
    su = list(ps.sub.basis)
    uv = [[mul(u, v) for v in su] for u in su]
    corner = range(len(su))

    def vec(a):
        return amb.format_vec(su[a])

    t = tensor_algebra(amb, h.algebra)
    co = [_on_leg(field, h.coproduct, d * d, u) for u in su]
    pair = next(((a, b) for a in corner for b in corner
                 if _on_leg(field, h.coproduct, d * d, uv[a][b])
                 != t.mul(co[a], co[b])), None)
    hits = h.left_hits
    acted = [[_on_leg(field, hits[m], d, u) for u in su] for m in range(d)]
    triple = next(((m, a, b) for m in range(d) for a in corner for b in corner
                   if _on_leg(field, hits[m], d, uv[a][b]) != _lincomb(
                       field, ((w, mul(acted[k][a], acted[l][b]))
                               for k, l, w in dual.comul[m]))), None)
    p = dual.algebra.labels
    mult = None if pair is None else \
        f"multiplicative fails at ({vec(pair[0])}, {vec(pair[1])})"
    law = None if triple is None else \
        f"module_law fails at ({p[triple[0]]}, {vec(triple[1])}, {vec(triple[2])})"
    return mult, law


def _witness(checks, name, sub):
    """The witness of sub-check ``sub`` of check ``name``, or None."""
    check = next(c for c in checks if c.name == name)
    found = [w for w in check.witnesses if w.startswith(f"{sub} fails")]
    assert check.measured[sub] == (not found)
    return found[0] if found else None


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_partial_smash_checks_match_per_tuple_oracle(field):
    # the twisted product of A⊗H with one cell bumped, and with every cell
    # of ``_positions`` bumped at once (on S₃ the first failing corner
    # vector then fails against two others): ρ(uv) and ρ(u)ρ(v), p ⇀ (uv)
    # and Σ (p1 ⇀ u)(p2 ⇀ v) all read the changed table
    failing = [0, 0]
    for _, pha in _actions(field):
        ps = build_partial_smash(pha)
        amb = all_bumped = ps.ambient
        tables = [mapping_rows(_bumped(amb, i, j, k)) for i, j, k in _positions(amb)]
        for i, j, k in _positions(amb):
            all_bumped = StructureAlgebra(field, mapping_rows(_bumped(all_bumped, i, j, k)),
                                          None)
        tables.append(all_bumped.products)
        bumped = [StructureAlgebra(field, rows, None, labels=amb.labels) for rows in tables]
        instances = [ps] + [
            PartialSmash(pha, b, ps.sub, ps.unit_vec, b.multiples(ps.unit_vec))
            for b in bumped]
        for inst in instances:
            checks = partial_smash_report(inst)
            mult, law = _psmash_oracle(inst)
            assert _witness(checks, "psmash.comodule_algebra", "multiplicative") == mult
            assert _witness(checks, "psmash.dual_module_algebra", "module_law") == law
            failing[0] += mult is not None
            failing[1] += law is not None
        assert _psmash_oracle(ps) == (None, None)
    assert min(failing) >= 10


def _per_tuple_axiom_failure(h, algebra, acts):
    """The message ``make_partial_hopf_action`` raises for these canonical
    sparse columns, from the per-tuple loops of the three axioms in order,
    or None."""
    field, mul = algebra.field, algebra.mul
    d, da = h.dim, algebra.dim
    hl, al = h.algebra.labels, algebra.labels
    for i in range(d):
        for x in range(da):
            for y in range(da):
                lhs = _lincomb(field, ((c, acts[i][t])
                                       for t, c in algebra.products[x].get(y, ())))
                if lhs != _lincomb(field, ((v, mul(acts[k][x], acts[l][y]))
                                           for k, l, v in h.comul[i])):
                    return str(Axiom1Fails(hl[i], al[x], al[y]))
    # 1_H ▷ a_x = a_x, densely from the matrices of the actions
    mats = [to_rows(cols, da) for cols in acts]
    for x in range(da):
        image = [sum(u * mats[i][r][x] for i, u in h.algebra.unit.items())
                 for r in range(da)]
        if [field.reduce(y) for y in image] != [int(r == x) for r in range(da)]:
            return str(Axiom2Fails(f"on basis {al[x]}"))
    unit = algebra.unit
    unit_acts = [_lincomb(field, ((c, acts[k][y]) for y, c in unit.items())) for k in range(d)]
    for i in range(d):
        for j in range(d):
            for x in range(da):
                lhs = _lincomb(field, ((c, acts[i][t]) for t, c in acts[j][x].items()))
                rhs = _lincomb(field, ((v, mul(unit_acts[k], _lincomb(
                    field, ((c, acts[t][x]) for t, c in h.algebra.products[l].get(j, ())))))
                    for k, l, v in h.comul[i]))
                if lhs != rhs:
                    return str(Axiom3Fails(hl[i], hl[j], al[x]))
    return None


def _perturbed_actions(acts, field):
    """The actions with the entry (0, 0) of the last raised by one, with the
    last replaced by the first or by the identity, all zero (axiom 1 holds,
    the unit acts as 0), and with the second and third swapped."""
    n, da = len(acts), len(acts[0])
    bump = [dict(col) for col in acts[-1]]
    bump[0][0] = bump[0].get(0, 0) + 1
    out = [acts[:-1] + [[field.sparse(col) for col in bump]], acts[:-1] + [acts[0]],
           acts[:-1] + [identity(da)], [[{} for _ in range(da)]] * n]
    if n > 2:
        out.append([acts[0]] + [acts[2], acts[1]] + acts[3:])
    return out


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_partial_action_axioms_match_per_tuple_oracle(field):
    kinds = set()
    for _, h, alg, acts in _lifts(field):
        assert _per_tuple_axiom_failure(h, alg, acts) is None
        for bad in _perturbed_actions(acts, field):
            want = _per_tuple_axiom_failure(h, alg, bad)
            try:
                make_partial_hopf_action(h, alg, bad)
            except ValidationError as exc:
                assert str(exc) == want
                kinds.add(type(exc))
            else:
                assert want is None
    assert {Axiom1Fails, Axiom2Fails, Axiom3Fails} <= kinds


# -- the partial-action layer ---------------------------------------------
#
# The oracles are the per-tuple loops the accumulators replaced, on the
# dense maps through ``dense_oracle.apply`` and with dense basis vectors.

def _per_tuple_partial_action(group, algebra, idempotents, maps):
    """``make_partial_action`` as it was: every Zassenhaus meet formed where
    it is read, each map applied as a dense matrix (``maps`` by dense
    rows), one pair at a time."""
    n, d, field = group.order, algebra.dim, algebra.field
    for g in range(n):
        if not is_central_idempotent(algebra, idempotents[g]):
            raise NotCentralIdempotent(
                f"g={group.label(g)}: {algebra.format_vec(idempotents[g])}")
    e = group.identity
    if idempotents[e] != algebra.unit:
        raise AxiomIFails("idempotent at the identity is not the unit")
    if maps[e] != to_rows(identity(d), d):
        raise AxiomIFails("map at the identity is not the identity map")
    ideals = [ideal_basis(algebra, idempotents[g]) for g in range(n)]
    for g in range(n):
        _per_tuple_iso_on_ideal(group, algebra, idempotents, maps, ideals, g)
    for g in range(n):
        for h in range(n):
            source = intersect(ideals[group.inv(g)], ideals[h])
            image = span_of(field, d, [apply(field, maps[g], v)
                                           for v in basis_of(source)])
            target = intersect(ideals[g], ideals[group.mul(g, h)])
            if image != target:
                raise AxiomIIFails(group.label(g), group.label(h),
                                   f"image dim {image.dim}, target dim {target.dim}")
    for g in range(n):
        for h in range(n):
            gh = group.mul(g, h)
            domain = intersect(ideals[group.inv(h)], ideals[group.inv(gh)])
            for idx, v in enumerate(basis_of(domain)):
                if (apply(field, maps[g], apply(field, maps[h], v))
                        != apply(field, maps[gh], v)):
                    raise AxiomIIIFails(group.label(g), group.label(h), idx)


def _per_tuple_iso_on_ideal(group, algebra, idempotents, maps, ideals, g):
    ginv = group.inv(g)
    field, d = algebra.field, algebra.dim
    source, target = ideals[ginv], ideals[g]
    comp = [field.reduce(a - b) for a, b in zip(dense(algebra.unit, d),
                                                 dense(idempotents[ginv], d))]
    for i in range(d):
        if any(apply(field, maps[g], multiply(algebra, comp, unit_vector(d, i)))):
            raise NotIsoOnIdeal(
                group.label(g),
                f"does not vanish on the complement of its source ideal "
                f"(basis {algebra.labels[i]})")
    images = [apply(field, maps[g], v) for v in basis_of(source)]
    image_span = span_of(field, d, images)
    if image_span != target or image_span.dim != source.dim:
        raise NotIsoOnIdeal(
            group.label(g),
            f"image of source ideal has dim {image_span.dim}, "
            f"target ideal has dim {target.dim} (source dim {source.dim})")
    for u in basis_of(source):
        gu = apply(field, maps[g], u)
        for v in basis_of(source):
            lhs = apply(field, maps[g], multiply(algebra, u, v))
            if lhs != multiply(algebra, gu, apply(field, maps[g], v)):
                raise NotIsoOnIdeal(group.label(g), "not multiplicative on its source ideal")


def _result(name, measured, witnesses):
    """A check record built by hand, independently of ``report.check``."""
    return CheckResult(name, FAIL if witnesses else PASS, measured, witnesses)


def _per_tuple_dot_identities(pa):
    """The five Lemma 1 identities of ``dot_identities_report``, one tuple
    at a time on the dense maps."""
    alg, grp = pa.algebra, pa.group
    d, n = alg.dim, grp.order

    maps = action_matrices(pa)
    idempotents = [dense(e, d) for e in pa.idempotents]

    def dot(g, v):
        return apply(alg.field, maps[g], v)

    def basis(i):
        return unit_vector(d, i)

    def product(i, j):
        return multiply(alg, basis(i), basis(j))

    results = []
    bad = []
    for g in range(n):
        for i in range(d):
            gi = dot(g, basis(i))
            for j in range(d):
                if dot(g, product(i, j)) != multiply(alg, gi, dot(g, basis(j))):
                    bad.append(f"g={grp.label(g)} on ({alg.labels[i]}, {alg.labels[j]})")
    results.append(_result("lemma1.multiplicative", {"pairs": n * d * d}, bad[:3]))
    bad = []
    for g in range(n):
        for h in range(n):
            gh = grp.mul(g, h)
            for i in range(d):
                a = basis(i)
                if dot(g, dot(h, a)) != multiply(alg, dot(gh, a), idempotents[g]):
                    bad.append(f"g={grp.label(g)} h={grp.label(h)} a={alg.labels[i]}")
    results.append(_result("lemma1.composition", {"triples": n * n * d}, bad[:3]))
    bad = []
    for g in range(n):
        ginv = grp.inv(g)
        for i in range(d):
            ga = dot(g, basis(i))
            for j in range(d):
                b = basis(j)
                if multiply(alg, ga, b) != dot(g, multiply(alg, basis(i), dot(ginv, b))):
                    bad.append(f"g={grp.label(g)} on ({alg.labels[i]}, {alg.labels[j]})")
    results.append(_result("lemma1.pull_through", {"pairs": n * d * d}, bad[:3]))
    bad = [grp.label(g) for g in range(n) if dot(g, dense(alg.unit, d)) != idempotents[g]]
    results.append(_result("lemma1.unit_image", {"elements": n}, bad))
    bad = []
    for g in range(n):
        for i in range(d):
            a = basis(i)
            if dot(g, dot(grp.inv(g), a)) != multiply(alg, a, idempotents[g]):
                bad.append(f"g={grp.label(g)} a={alg.labels[i]}")
    results.append(_result("lemma1.round_trip", {"pairs": n * d}, bad[:3]))
    return results


def _message(fn, *args):
    """The message of the ValidationError ``fn(*args)`` raises, or None."""
    try:
        fn(*args)
    except ValidationError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _tampered_columns(pa):
    """(g, columns of α_g) for each non-identity g: each column raised by
    b_0 in turn, each column zeroed in turn, α_g followed by the swap of
    two coordinates b_s, b_t, and α_g replaced by α_{g⁻¹} and by α_{g²}
    where they differ from α_g."""
    field, grp, d = pa.algebra.field, pa.group, pa.algebra.dim
    for g in range(grp.order):
        if g == grp.identity:
            continue
        cols = pa.columns[g]
        for j, col in enumerate(cols):
            raised = dict(col)
            raised[0] = raised.get(0, 0) + 1
            yield g, cols[:j] + [field.sparse(raised)] + cols[j + 1:]
            yield g, cols[:j] + [{}] + cols[j + 1:]
        for s in range(d):
            for t in range(s + 1, d):
                swap = {s: t, t: s}
                yield g, [{swap.get(r, r): x for r, x in sorted(col.items())}
                          for col in cols]
        for h in {grp.inv(g), grp.mul(g, g)}:
            if pa.columns[h] != cols:
                yield g, pa.columns[h]


def _planted(pa, g, cols):
    """The action with α_g given by the sparse columns cols, built directly
    so that no axiom check sees it."""
    columns = list(pa.columns)
    columns[g] = cols
    return PartialAction(pa.group, pa.algebra, pa.idempotents, columns, pa.ideals)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_partial_action_layer_matches_per_tuple_oracles(field):
    kinds, failing = set(), set()
    for _, pa in _partial_actions(field):
        args = (pa.group, pa.algebra, pa.idempotents)
        assert _message(_per_tuple_partial_action, *args, action_matrices(pa)) is None
        assert dot_identities_report(pa)[:5] == _per_tuple_dot_identities(pa)
        for g, cols in _tampered_columns(pa):
            bad = _planted(pa, g, cols)
            want = _message(_per_tuple_partial_action, *args, action_matrices(bad))
            assert _message(make_partial_action, *args, bad.columns) == want
            kinds.add(want and want.split(":")[0])
            got = dot_identities_report(bad)[:5]
            assert got == _per_tuple_dot_identities(bad)
            failing.update(c.name for c in got if c.status == "fail")
    assert {"NotIsoOnIdeal", "AxiomIIFails", "AxiomIIIFails"} <= kinds
    assert failing == {"lemma1.multiplicative", "lemma1.composition",
                       "lemma1.pull_through", "lemma1.unit_image",
                       "lemma1.round_trip"}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_iso_on_ideal_matches_per_tuple_oracle_on_planted_maps(field):
    # a map that is bijective between the ideals but not multiplicative
    # reaches the accumulator of the multiplicativity check
    messages = set()
    for _, pa in _partial_actions(field):
        group, alg = pa.group, pa.algebra
        for g, cols in _tampered_columns(pa):
            bad = _planted(pa, g, cols)
            want = _message(_per_tuple_iso_on_ideal, group, alg, pa.idempotents,
                            action_matrices(bad), pa.ideals, g)
            assert _message(actions._check_iso_on_ideal, group, alg, pa.idempotents,
                            bad.columns, pa.ideals, g) == want
            messages.add(want and want.split(": ")[-1])
    assert "not multiplicative on its source ideal" in messages


@pytest.mark.parametrize("field", (QQ, GF(5)), ids=("q", "fp5"))
def test_ideal_meets_from_idempotent_products_match_zassenhaus(field, monkeypatch):
    # the 1_g are central idempotents, so D_a ∩ D_b = A·1_a1_b: the span of
    # the multiples of 1_a·1_b has the echelon rows of the Zassenhaus meet
    docs = [load_scenario(fixture_path(name)) for name in bundled_fixtures()]
    for doc in docs + [INLINE["s3_split"], INLINE["s3_separability"]]:
        algebra = build_algebra(field, doc["algebra"]) if "algebra" in doc else None
        pa = build_action(field, build_group(doc["group"]), algebra, doc["action"])
        alg, n = pa.algebra, pa.group.order
        for a in range(n):
            for b in range(n):
                meet = Subspace.span(field, alg.dim, alg.multiples(
                    alg.mul(pa.idempotents[a], pa.idempotents[b])).values())
                assert meet == intersect(pa.ideals[a], pa.ideals[b])
    # the library has no Zassenhaus meet, and the builder proves each
    # distinct idempotent central once: the S₃ split has two, 1 and the
    # left unit
    assert not hasattr(Subspace, "intersect")
    proved = []
    central = actions._central_multiples
    monkeypatch.setattr(actions, "_central_multiples",
                        lambda alg, x: proved.append(x) or central(alg, x))
    doc = INLINE["s3_split"]
    build_action(field, build_group(doc["group"]), None, doc["action"])
    assert len(proved) == 2
