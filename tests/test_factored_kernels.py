"""The factored product kernels against the table routes they replace.

* ``TensorAlgebra.mul`` multiplies through its factors; it must
  equal the plain sparse product over the tensor's own table, which is
  built from the factors' rows on its first read.
* ``algebras.smash_algebra`` indexes its action table by y, keeping only
  the nonzero b_k▷a_y, and each Δ(b_i) by its first leg k, so it forms
  x·(b_k▷y) only for a nonzero b_k▷y and visits only the terms whose first
  leg acts on y nontrivially.  Its cells must equal those of the retired
  loop over every (x, k, y) and every term of every Δ(b_i), kept here as
  ``_retired_smash_rows``, and the per-term route, which forms x·(b_k▷y)
  afresh for every term with a dense product, for the group smash and the
  four smash products of the Hopf lift; no empty action entry is read.
* ``make_algebra`` sorts the cells it is given and drops the empty ones, and
  the builders emit sorted rows of nonempty sorted cells, so
  ``StructureAlgebra`` stores them as they come: every row of every algebra
  a scenario builds holds its cells in ascending j, and every cell is
  nonempty and strictly sorted by index.
* ``StructureAlgebra.column_index``, built on its first read, lists for
  every j the pairs (i, b_i·b_j) over the nonempty cells of column j in
  ascending i: on every algebra a scenario builds it equals the per-cell
  lookup ``products[i].get(j)``.
"""

from hypothesis import given, settings, strategies as st
import pytest

from partialskew import hopf, smash
from partialskew.actions import global_action, restrict_global, trivial_from_split
from partialskew.algebras import StructureAlgebra, _add, product_of_fields
from partialskew.constructions import TensorAlgebra
from partialskew.duality import build_duality
from partialskew.fields import GF, QQ
from partialskew.groups import cyclic, symmetric
from partialskew.scenarios import bundled_fixtures, fixture_path, run_scenario
from partialskew.skew import build_skew
from partialskew.smash import build_smash

from corpus_helpers import mapping_rows, z3_restricted_action
from dense_oracle import dense
from test_golden_reports import INLINE

FIELDS = (QQ, GF(2), GF(5), GF(2**61 - 1))


def _scalars(field, nonzero=False):
    """Scalars of the field; over F_p any int representative (negative, a
    multiple of p), and only nonzero residues when ``nonzero``."""
    if field.characteristic:
        p = field.characteristic
        if nonzero:
            return st.integers(1, p - 1)
        return st.one_of(st.integers(0, p - 1), st.integers(-3 * p, 3 * p),
                         st.integers(-3, 3).map(lambda m: m * p))
    ints = st.integers(-4, 4)
    if nonzero:
        ints = ints.filter(bool)
    return st.one_of(ints, st.fractions(max_denominator=5).filter(
        lambda x: x or not nonzero))


@st.composite
def _algebra(draw, field):
    """A structure algebra on a random sparse table of canonical nonzero
    constants; the products kernels need no associativity."""
    d = draw(st.integers(1, 3))
    value = _scalars(field, nonzero=True)
    table = [[tuple(sorted(draw(st.dictionaries(
        st.integers(0, d - 1), value, max_size=2)).items()))
        for _ in range(d)] for _ in range(d)]
    return StructureAlgebra(field, mapping_rows(table), None)


@st.composite
def _tensor_instances(draw):
    """(tensor, x, y): A⊗B or A⊗(B⊗C) over a random field, and two sparse
    vectors of arbitrary representatives."""
    field = draw(st.sampled_from(FIELDS))
    t = TensorAlgebra(draw(_algebra(field)), draw(_algebra(field)))
    if draw(st.booleans()):
        t = TensorAlgebra(draw(_algebra(field)), t)
    vec = st.dictionaries(st.integers(0, t.dim - 1), _scalars(field), max_size=6)
    return t, draw(vec), draw(vec)


def _table_product(alg, x, y):
    """x·y over alg's table, every representative reduced at the end."""
    acc = {}
    for i, xi in x.items():
        for j, yj in y.items():
            for k, v in alg.products[i].get(j, ()):
                acc[k] = acc.get(k, 0) + xi * yj * v
    p = alg.field.characteristic
    if p:
        acc = {k: v % p for k, v in acc.items()}
    return {k: v for k, v in acc.items() if v}


@settings(max_examples=200, deadline=None)
@given(_tensor_instances())
def test_factored_tensor_product_matches_table_route(inst):
    t, x, y = inst
    got = t.mul(x, y)
    # the product went through the factors: no table was built, nested or not
    assert not any("products" in vars(alg) for alg in (t, t.tensor_factors[1])
                   if isinstance(alg, TensorAlgebra))
    assert got == _table_product(t, x, y)
    p = t.field.characteristic
    assert all(v and (not p or (type(v) is int and 0 <= v < p))
               for v in got.values())


def _per_term_products(a, b, comul, acted):
    """The rows of A # B with x·(b_k▷y) formed anew, by a dense product of
    a_x with the densified ``acted[k][y]`` over the rows of A, for every
    term (k, l, v) of every Δ(b_i)."""
    field = a.field
    da, db = a.dim, b.dim

    def times(x, k, y):
        out = [0] * da
        for s, c in enumerate(dense(acted[k][y], da)):
            for t, w in a.products[x].get(s, ()) if c else ():
                out[t] += c * w
        return field.sparse(dict(enumerate(out)))

    rows = []
    for x in range(da):
        for i in range(db):
            row = []
            for y in range(da):
                for j in range(db):
                    cell = {}
                    for k, l, v in comul[i]:
                        xy = times(x, k, y)
                        for t, u in b.products[l].get(j, ()):
                            for s, w in xy.items():
                                key = s * db + t
                                cell[key] = cell.get(key, 0) + v * u * w
                    row.append(tuple(sorted(field.sparse(cell).items())))
            rows.append(tuple(row))
    return tuple(rows)


def _s3_split(field):
    k = product_of_fields(field, 1)
    return trivial_from_split(k, k, symmetric(3))


def _retired_smash_rows(a, b, comul, acted):
    """The rows of A # B by the loop ``smash_algebra`` ran before it indexed
    its tables: x·(b_k▷y) for every (x, k, y), empty or not, and every term
    of every Δ(b_i) for every y, its zero x·(b_k▷y) skipped one at a time.
    Each cell is sorted by index, as ``make_algebra`` stores it."""
    sparse = a.field.sparse
    da, db = a.dim, b.dim
    brows = [row.items() for row in b.products]
    rows = []
    for arow in a.products:
        xky = []
        for by_y in acted:
            per_y = []
            for ay in by_y:
                acc = {}
                for j, c in ay.items():
                    cell = arow.get(j)
                    if cell:
                        _add(acc, 0, c, cell)
                per_y.append(sparse(acc).items())
            xky.append(per_y)
        for i in range(db):
            row = {}
            for y in range(da):
                cells = {}
                for k, l, v in comul[i]:
                    xs = xky[k][y]
                    if not xs:
                        continue
                    for j, bcell in brows[l]:
                        cell = cells.setdefault(j, {})
                        for t, u in bcell:
                            for s, w in xs:
                                key = s * db + t
                                cell[key] = cell.get(key, 0) + v * u * w
                for j in sorted(cells):
                    cell = sparse(cells[j])
                    if cell:
                        row[y * db + j] = tuple(sorted(cell.items()))
            rows.append(row)
    return tuple(rows)


def _smash_tables(pa, wrap=None):
    """Run the group smash R#k^G and the Hopf lift of ``pa``, and return
    (table, (a, b, comul, acted)) for the five smash products built: R#k^G,
    H#H*, H*#H, A⊗H twisted by the partial action, and (A⊗H)#H*.  ``wrap``,
    if given, maps the arguments before ``smash_algebra`` sees them."""
    built = []
    builder = hopf.smash_algebra
    assert smash.smash_algebra is builder

    def spy(a, b, comul, acted, unit):
        args = (a, b, comul, acted)
        if wrap is not None:
            acted = wrap(acted)
        alg = builder(a, b, comul, acted, unit)
        built.append((alg, args))
        return alg

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hopf, "smash_algebra", spy)
        mp.setattr(smash, "smash_algebra", spy)
        skew = build_skew(pa)
        build_smash(skew)
        results = hopf.hopf_lift_suite(pa, skew)
    assert all(c.status == "pass" for c in results)
    a_dim = pa.algebra.dim
    d = pa.group.order
    assert [alg.dim for alg, _ in built] == [
        skew.dim * d, d * d, d * d, a_dim * d, a_dim * d * d]
    return built


ACTIONS = {
    "z3_q": z3_restricted_action,
    "s3_q": lambda: _s3_split(QQ),
    "s3_fp5": lambda: _s3_split(GF(5)),
}


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_smash_cells_match_per_term_route(name):
    for alg, args in _smash_tables(ACTIONS[name]()):
        assert alg.products == mapping_rows(_per_term_products(*args))


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_smash_cells_match_retired_loop(name):
    for alg, args in _smash_tables(ACTIONS[name]()):
        assert alg.products == _retired_smash_rows(*args)


@settings(max_examples=6, deadline=None)
@given(st.permutations(range(4)).filter(lambda p: all(p[p[p[i]]] == i for i in range(4))),
       st.lists(st.booleans(), min_size=4, max_size=4).filter(any),
       st.sampled_from([QQ, GF(5)]))
def test_random_partial_action_smash_matches_retired_loop(perm, bits, field):
    # a permutation of order dividing 3 generates a Z₃ action on k⁴;
    # restricted to a random nonzero 0/1 idempotent it is partial
    algebra = product_of_fields(field, 4)
    parent = global_action(cyclic(3), algebra,
                           [[{x: field.one} for x in power]
                            for power in (range(4), perm, [perm[x] for x in perm])])
    e = {i: field.one for i, b in enumerate(bits) if b}
    for alg, args in _smash_tables(restrict_global(parent, e)):
        assert alg.products == _retired_smash_rows(*args)


class _Unread(dict):
    """An empty action entry that must not be read."""

    def items(self):
        raise AssertionError("smash_algebra read an empty action entry")


def test_smash_reads_no_empty_action_entry():
    empty = []

    def wrap(acted):
        marked = [[ay if ay else _Unread() for ay in by_y] for by_y in acted]
        empty.append(sum(not ay for by_y in acted for ay in by_y))
        return marked

    for alg, args in _smash_tables(_s3_split(QQ), wrap):
        assert alg.products == _retired_smash_rows(*args)
    # the group smash and the triple table have empty entries to skip
    # (on H*#H, k[G] permutes the p_h, so it has none)
    assert len(empty) == 5 and empty[0] and empty[4], empty


def _assert_stores_nonempty_cells(alg):
    """Every row of alg holds its cells in ascending j, none of them empty."""
    for row in alg.products:
        assert list(row) == sorted(row), alg
        assert all(type(cell) is tuple and cell for cell in row.values()), alg


def test_s3_split_tables_store_only_nonempty_cells(monkeypatch):
    # the s3_split document over q: M₆(k×k) stores n³ times the nonempty
    # cells of k×k, 6³·2 of its 72² cells; the 42-dim smash, H#H*, the
    # 72-dim triple table (A⊗H)#H* and a tensor product store no empty cell
    built = []
    builder = hopf.smash_algebra

    def spy(a, b, comul, acted, unit):
        alg = builder(a, b, comul, acted, unit)
        built.append(alg)
        return alg

    monkeypatch.setattr(hopf, "smash_algebra", spy)
    monkeypatch.setattr(smash, "smash_algebra", spy)
    pa = _s3_split(QQ)
    skew = build_skew(pa)
    mat = build_duality(build_smash(skew)).mat
    assert all(c.status == "pass" for c in hopf.hopf_lift_suite(pa, skew))
    assert mat.dim == 72
    assert sum(len(row) for row in mat.products) == 432
    group_smash, h_smash_dual, _, _, triple = built
    assert (group_smash.dim, h_smash_dual.dim, triple.dim) == (42, 36, 72)
    tensor = TensorAlgebra(product_of_fields(QQ, 2), pa.algebra)
    for alg in (mat, group_smash, h_smash_dual, triple, tensor):
        _assert_stores_nonempty_cells(alg)


def _record_algebras(monkeypatch):
    built = []
    for cls in (StructureAlgebra, TensorAlgebra):
        init = cls.__init__

        def record(self, *args, _init=init, **kwargs):
            built.append(self)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", record)
    return built


@pytest.mark.parametrize("field", ["q", "fp:5", "fp:2"])
def test_every_built_cell_is_strictly_sorted(monkeypatch, field):
    built = _record_algebras(monkeypatch)
    sources = [fixture_path(name) for name in bundled_fixtures()] + [INLINE["s3_split"]]
    for source in sources:
        assert run_scenario(source, field_override=field).passed()
    assert any(isinstance(alg, TensorAlgebra) for alg in built)
    for alg in built:
        _assert_stores_nonempty_cells(alg)
        for row in alg.products:
            for cell in row.values():
                assert all(a[0] < b[0] for a, b in zip(cell, cell[1:])), (alg, cell)


@pytest.mark.parametrize("field", ["q", "fp:5", "fp:2"])
def test_every_built_column_index_matches_the_cells(monkeypatch, field):
    built = _record_algebras(monkeypatch)
    sources = [fixture_path(name) for name in bundled_fixtures()] + [INLINE["s3_split"]]
    for source in sources:
        assert run_scenario(source, field_override=field).passed()
    kinds = {type(alg).__name__ for alg in built}
    assert {"StructureAlgebra", "MatrixAlgebra", "TensorAlgebra"} <= kinds
    for alg in built:
        index = alg.column_index
        assert alg.column_index is index
        assert index == [[(i, row[j]) for i, row in enumerate(alg.products) if j in row]
                         for j in range(alg.dim)], alg
