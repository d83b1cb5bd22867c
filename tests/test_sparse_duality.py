"""The sparse duality, twisted-ring and centre passes against the routes
they replaced.

* ``algebras.center_basis`` with a generating set builds one commutator row
  per (generator, output coordinate); ``_full_center_basis`` builds all d²
  rows [x, b_j] = 0 and checks commutation with dense products.
* ``StructureAlgebra.multiples`` forms b·r once per echelon row r for the
  two-sided test and the Kronecker tally (``_left``);
  ``_own_products_two_sided`` forms each product on its own, b-major.  The
  tally reads the ideal's sparse echelon rows and its predictions b_j·x off
  the twisted ring's table; ``_per_product_tally`` finds each row's block
  with ``_block_of`` and its A-coordinates with ``_project`` on the dense
  basis, multiplies per (v, j, l) through α, and names the same first
  failure of the l = gh rule.
* ``build_duality`` checks φ multiplicative on every basis pair, which is
  the entry identity on every group triple (g, h, k);
  ``_per_k_entry_identity`` redoes all five dense images and both products
  of that identity for every k and basis pair.
* ``skew.build_skew`` reads each product cell off the pivots of D_gh and
  ``component_product_span`` reads cells of the table; ``_dense_skew``
  forms a ring-long coordinate list per product (``coords_at``) and
  ``_dense_component_span`` multiplies dense unit vectors.
* The block subspaces of ``duality`` (kernel formula, complementary ideal),
  the corner idempotent, the argument of ``skew_injectivity_report`` and
  ``_cross_product_witness`` are formed from sparse products;
  ``_dense_block_subspace``, ``_dense_corner_idempotent``,
  ``_dense_injectivity_argument`` and ``_pairwise_cross_witness`` (one
  sparse product per ideal × kernel pair) are the routes they replaced.
* ``corner_report`` forms b_i·m once per distinct m = 1_{r⁻¹}1_{s⁻¹} for
  the entrywise image, and the Pierce corner e·E_b·e from the rows of
  e's support and the cells in e's columns; φ∘ι is composed from sparse
  columns.  ``_dense_entrywise``, ``_dense_pierce`` (two dense
  products per basis element) and ``_dense_composite``
  (``dense_oracle.matmul``) are the dense routes.

Each pair is compared on the bundled corpus and both S₃ documents over
q, fp:5 and fp:2, and on tampered inputs that must fail the same way.
"""

from functools import lru_cache
from types import SimpleNamespace

import pytest

import partialskew.duality as duality
import partialskew.skew as skew_module
from partialskew.actions import PartialAction
from partialskew.algebras import (AlgebraMap, center_basis, field_algebra,
                                  product_of_fields)
from partialskew.constructions import matrix_algebra
from partialskew.duality import (DualityData, _cross_product_witness,
                                 _delta_convention_tally, _entrywise_image,
                                 _is_two_sided_ideal,
                                 _pierce_corner, build_duality,
                                 complement_ideal_subspace, corner_report,
                                 decomposition_report, kernel_formula_subspace,
                                 skew_injectivity_report)
from partialskew.errors import InternalCheckFailed, ValidationError
from partialskew.fields import parse_field
from partialskew.linalg import Subspace
from partialskew.scenarios import (build_action, build_algebra, build_group,
                                   bundled_fixtures, fixture_path,
                                   load_scenario)
from partialskew.skew import build_skew, component_product_span
from partialskew.smash import build_smash

from corpus_helpers import action_matrices, map_matrix, place
from dense_oracle import (apply, basis_of, dense, kernel, matmul, multiply,
                          span_of, sparse, unit_vector)
from test_golden_reports import INLINE

FIELDS = ("q", "fp:5", "fp:2")
SOURCES = tuple(bundled_fixtures()) + tuple(sorted(INLINE))


def _left(algebra, subspace):
    """The left multiples of each echelon row of subspace, in order, as
    ``decomposition_report`` passes them to the two-sided test."""
    return [algebra.multiples(r) for r in subspace.basis]


@lru_cache(maxsize=None)
def _duality(name, token):
    """The duality data of a corpus fixture or an inline S₃ document."""
    doc = INLINE[name] if name in INLINE else load_scenario(fixture_path(name))
    field = parse_field(token)
    group = build_group(doc["group"])
    algebra = build_algebra(field, doc["algebra"]) if "algebra" in doc else None
    action = build_action(field, group, algebra, doc["action"])
    return build_duality(build_smash(build_skew(action)))


# -- the replaced routes ---------------------------------------------------
#
# They read dense vectors: tuples of scalars, converted from the library's
# sparse vectors where they enter.

def _sub(field, x, y):
    return tuple(field.reduce(a - b) for a, b in zip(x, y))


def _coords(space, vec):
    """The dense coordinates of a dense vector on the echelon basis of
    space, or None outside it."""
    coords = space.coordinates(sparse(vec))
    return None if coords is None else dense(coords, space.dim)


def _dot(pa, g, vec):
    """g·vec by the dense matrix of α_g."""
    return apply(pa.algebra.field, action_matrices(pa)[g], vec)


def _full_center_basis(alg):
    """Solution space of [x, b_j] = 0 over all d² rows, checked densely."""
    d = alg.dim
    rows = [{} for _ in range(d * d)]
    for i in range(d):
        for j in range(d):
            for k, v in alg.products[i].get(j, ()):
                row = rows[j * d + k]
                row[i] = row.get(i, 0) + v
            for k, v in alg.products[j].get(i, ()):
                row = rows[j * d + k]
                row[i] = row.get(i, 0) - v
    centre = Subspace.kernel(alg.field, d, rows)
    units = [unit_vector(d, j) for j in range(d)]
    for v in basis_of(centre):
        for u in units:
            if multiply(alg, v, u) != multiply(alg, u, v):
                raise InternalCheckFailed("central element does not commute")
    return centre


def _scaled_cells(sparse, terms):
    acc = {}
    for x, cell in terms:
        for k, v in cell:
            acc[k] = acc.get(k, 0) + x * v
    return sparse(acc)


def _own_products_two_sided(algebra, subspace):
    """The two-sided test with its own products, b-major, left first: the
    first failure's witness, or None."""
    sparse = algebra.field.sparse
    prods = algebra.products
    rows = [list(r.items()) for r in subspace.basis]
    for b in range(algebra.dim):
        for r in rows:
            if _scaled_cells(sparse, ((x, prods[b].get(j, ())) for j, x in r)) not in subspace:
                return f"left multiple of {algebra.labels[b]} escapes"
            if _scaled_cells(sparse, ((x, prods[i].get(b, ())) for i, x in r)) not in subspace:
                return f"right multiple of {algebra.labels[b]} escapes"
    return None


def _grade_position(skew, j):
    """(g, position in the echelon basis of D_g) of the skew basis index j."""
    g = skew.grades[j]
    return g, j - skew.offsets[g]


def _block_of(smash, vec):
    """(grade, dual index) of a vector supported in a single block."""
    found = None
    for idx, c in enumerate(vec):
        if not c:
            continue
        j, h = smash.parts(idx)
        g = smash.skew.grades[j]
        if found is None:
            found = (g, h)
        elif found != (g, h):
            return None
    return found


def _project(skew, coeffs, g):
    """A-coordinates of the g-component of a skew coefficient vector."""
    out = [0] * skew.action.algebra.dim
    for i, v in enumerate(basis_of(skew.action.ideals[g])):
        c = coeffs[skew.offsets[g] + i]
        if c:
            for t, x in enumerate(v):
                out[t] += c * x
    return tuple(map(skew.algebra.field.reduce, out))


def _per_product_tally(d, left=None):
    """The Kronecker tally with one sparse product per (v, j, l), or, given
    a left-product table, one lookup in it per (v, j, l), and the first
    (row, smash index) at which the l = gh prediction fails, in row order
    and then index order (None when it never does)."""
    smash = d.smash
    skew = smash.skew
    pa = skew.action
    alg, grp = pa.algebra, pa.group
    B = smash.algebra
    conventions = {"l=gh": True, "k=gh": True, "h=kl": True}
    first = None
    for r, v in enumerate(basis_of(d.ideal)):
        blk = _block_of(smash, v)
        if blk is None:
            continue
        g, h = blk
        a_part = _project(
            skew, tuple(v[smash.index(j, h)] for j in range(skew.dim)), g)
        for j in range(skew.dim):
            k, pos = _grade_position(skew, j)
            w = multiply(alg, basis_of(pa.ideals[k])[pos], _dot(pa, k, a_part))
            kg = grp.mul(k, g)
            coords = _coords(pa.ideals[kg], w)
            payload = {smash.index(skew.offsets[kg] + t, h): c
                       for t, c in enumerate(coords) if c}
            for l in range(grp.order):
                b = smash.index(j, l)
                true = (B.mul({b: alg.field.one}, sparse(v))
                        if left is None else left[r].get(b, {}))
                for name, cond in (("l=gh", l == grp.mul(g, h)),
                                   ("k=gh", k == grp.mul(g, h)),
                                   ("h=kl", h == grp.mul(k, l))):
                    if true != (payload if cond else {}):
                        conventions[name] = False
                        if name == "l=gh" and first is None:
                            first = (r, b)
    return conventions, first


def _per_k_entry_identity(pa):
    """Message of the first failing (g, h, k), all images formed per k."""
    alg, grp = pa.algebra, pa.group
    inv = grp.inv
    n = grp.order

    def dot(g, v):
        return _dot(pa, g, v)

    for g in range(n):
        for h in range(n):
            gh = grp.mul(g, h)
            for k in range(n):
                hk = grp.mul(h, k)
                for a in basis_of(pa.ideals[g]):
                    ga = dot(inv(hk), dot(inv(g), a))
                    for b in basis_of(pa.ideals[h]):
                        lhs = dot(inv(k), dot(inv(gh), multiply(alg, a, dot(g, b))))
                        rhs = multiply(alg, ga, dot(inv(k), dot(inv(h), b)))
                        if lhs != rhs:
                            return (f"entry identity fails at ({grp.label(g)},"
                                    f"{grp.label(h)},{grp.label(k)})")
    return None


class _Tabled(Exception):
    """Raised in place of ``make_algebra`` to hand back the table it got."""


def _skew_table(pa, monkeypatch):
    """The product rows and unit that ``build_skew`` hands to
    ``make_algebra``, or the text of the InternalCheckFailed it raises
    before."""
    def record(field, products, unit, labels=None):
        raise _Tabled([{y: tuple(c) for y, c in row.items()} for row in products],
                      dict(unit))

    with monkeypatch.context() as m:
        m.setattr(skew_module, "make_algebra", record)
        try:
            build_skew(pa)
        except _Tabled as table:
            return table.args
        except InternalCheckFailed as exc:
            return str(exc)
    raise AssertionError("build_skew returned without a table")


def _dense_skew(pa):
    """Product rows, unit and embedding columns of the twisted ring, one
    ring-long coordinate list per product (``coords_at``); the text of the
    first InternalCheckFailed instead when a product leaves its component."""
    alg, grp = pa.algebra, pa.group
    field, n = alg.field, grp.order
    bases = [basis_of(pa.ideals[g]) for g in range(n)]
    offsets = [sum(len(b) for b in bases[:g]) for g in range(n)]
    total = sum(len(b) for b in bases)
    tags = [(g, i) for g in range(n) for i in range(len(bases[g]))]

    def coords_at(g, avec):
        coords = _coords(pa.ideals[g], avec)
        if coords is None:
            raise InternalCheckFailed(
                "twisted product left its target graded component")
        out = [field.zero] * total
        for i, c in enumerate(coords):
            out[offsets[g] + i] = c
        return out

    try:
        products = []
        for g, i in tags:
            row = {}
            for y, (h, j) in enumerate(tags):
                w = multiply(alg, bases[g][i], _dot(pa, g, bases[h][j]))
                cell = tuple((k, c) for k, c in enumerate(coords_at(grp.mul(g, h), w))
                             if c)
                if cell:
                    row[y] = cell
            products.append(row)
        unit = sparse(coords_at(grp.identity, dense(alg.unit, alg.dim)))
        embed = [sparse(coords_at(grp.identity, unit_vector(alg.dim, i)))
                 for i in range(alg.dim)]
    except InternalCheckFailed as exc:
        return str(exc)
    return products, unit, embed


def _dense_component_span(skew, g, h):
    alg = skew.algebra
    return span_of(alg.field, skew.dim, [
        multiply(alg, u, v) for u in basis_of(skew.components[g])
        for v in basis_of(skew.components[h])])


def _dense_block_subspace(smash, multiplier):
    """Span of {b_i·multiplier(g,h) placed at grade g with dual index h},
    from dense products and dense coordinates."""
    skew = smash.skew
    pa = skew.action
    alg = pa.algebra
    n = pa.group.order
    vectors = []
    for g in range(n):
        for h in range(n):
            m = multiplier(g, h)
            for i in range(alg.dim):
                v = multiply(alg, unit_vector(alg.dim, i), m)
                if not any(v):
                    continue
                coords = _coords(pa.ideals[g], v)
                if coords is None:
                    raise InternalCheckFailed("block generator left its ideal")
                vectors.append({smash.index(skew.offsets[g] + t, h): c
                                for t, c in enumerate(coords) if c})
    return Subspace.span(alg.field, smash.dim, vectors)


def _dense_kernel_formula(smash):
    pa = smash.skew.action
    alg, grp = pa.algebra, pa.group
    unit, es = dense(alg.unit, alg.dim), [dense(e, alg.dim) for e in pa.idempotents]
    return _dense_block_subspace(smash, lambda g, h: multiply(
        alg, _sub(alg.field, unit, es[grp.mul(g, h)]), es[g]))


def _dense_complement(smash):
    pa = smash.skew.action
    alg, grp = pa.algebra, pa.group
    es = [dense(e, alg.dim) for e in pa.idempotents]
    return _dense_block_subspace(smash, lambda g, h: multiply(alg, es[grp.mul(g, h)], es[g]))


def _dense_entrywise(pa, mat):
    alg, grp = pa.algebra, pa.group
    es = [dense(e, alg.dim) for e in pa.idempotents]
    vectors = []
    for r in range(grp.order):
        for s in range(grp.order):
            m = multiply(alg, es[grp.inv(r)], es[grp.inv(s)])
            for i in range(alg.dim):
                v = multiply(alg, unit_vector(alg.dim, i), m)
                vectors.append({mat.slot(r, s, t): x for t, x in enumerate(v) if x})
    return Subspace.span(alg.field, mat.dim, vectors)


def _dense_corner_idempotent(d):
    pa = d.smash.skew.action
    mat, grp, field = d.mat, pa.group, pa.algebra.field
    bold_e = [field.zero] * mat.dim
    for g in range(grp.order):
        for k, x in place(mat, g, g, pa.idempotents[grp.inv(g)]).items():
            bold_e[k] = field.reduce(bold_e[k] + x)
    return sparse(bold_e)


def _dense_injectivity_argument(pa):
    alg = pa.algebra
    unit = dense(alg.unit, alg.dim)
    for e in pa.idempotents:
        e = dense(e, alg.dim)
        m = multiply(alg, _sub(alg.field, unit, e), e)
        if not span_of(alg.field, alg.dim, [
                multiply(alg, unit_vector(alg.dim, i), m)
                for i in range(alg.dim)]).is_zero():
            return False
    return True


def _pairwise_cross_witness(algebra, ideal, kernel):
    """One sparse product per (ideal row, kernel row) pair and side."""
    mul = algebra.mul
    ks = list(kernel.basis)
    for i, sv in enumerate(ideal.basis):
        for j, w in enumerate(ks):
            if mul(sv, w):
                return f"ideal[{i}]*kernel[{j}] is nonzero"
            if mul(w, sv):
                return f"kernel[{j}]*ideal[{i}] is nonzero"
    return None


def _dense_pierce(mat, e):
    """e·E_b·e for every basis element E_b, e sparse, by two dense
    products each."""
    e = dense(e, mat.dim)
    return span_of(mat.field, mat.dim, [
        multiply(mat, e, multiply(mat, unit_vector(mat.dim, b), e)) for b in range(mat.dim)])


def _dense_composite(d):
    """φ∘ι by the dense matrix product."""
    return matmul(d.mat.field, map_matrix(d.phi), map_matrix(d.smash.embed_skew_map))


# -- agreement on the corpus and S₃ ----------------------------------------

@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", SOURCES)
def test_centres_by_generators_match_full_system(name, field):
    d = _duality(name, field)
    smash, mat = d.smash, d.mat
    for alg in (smash.skew.action.algebra, smash.skew.algebra):
        assert center_basis(alg) == _full_center_basis(alg)
    full = _full_center_basis(smash.algebra)
    assert center_basis(smash.algebra, smash.generators()) == full
    assert center_basis(smash.algebra) == full
    full = _full_center_basis(mat)
    assert center_basis(mat, mat.generators()) == full
    assert center_basis(mat) == full


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", SOURCES)
def test_left_product_table_matches_own_products(name, field):
    d = _duality(name, field)
    B = d.smash.algebra
    left = _left(B, d.ideal)
    assert _is_two_sided_ideal(B, d.ideal, left) == _own_products_two_sided(B, d.ideal)
    assert (_is_two_sided_ideal(B, d.kernel, _left(B, d.kernel))
            == _own_products_two_sided(B, d.kernel))
    assert _delta_convention_tally(d, left) == _per_product_tally(d)
    for r, row in zip(d.ideal.basis, left):
        assert all(row.get(b, {}) == B.mul({b: B.field.one}, r)
                   for b in range(B.dim))


def _reshaped_left(d, left, where):
    """A left-product table of the ideal in which b_j#p_l · v is the true
    product at l = gh (the payload) for the l in ``where(g, h, k)`` and
    empty elsewhere, for v in block (g, h) and b_j of grade k."""
    smash, grp = d.smash, d.smash.group
    out = []
    for v, row in zip(basis_of(d.ideal), left):
        g, h = _block_of(smash, v)
        gh = grp.mul(g, h)
        new = {}
        for j in range(smash.skew.dim):
            payload = row.get(smash.index(j, gh))
            if payload:
                for l in where(g, h, smash.skew.grades[j]):
                    new[smash.index(j, l)] = payload
        out.append(new)
    return out


@pytest.mark.parametrize("name", SOURCES)
def test_tally_of_reshaped_tables_matches_every_index(name):
    # tables shaped by each printed convention: the tally compares only
    # l = gh, l = k⁻¹h and the reached l, and must agree with a lookup at
    # every l; under k = gh with the payload at l = gh and l = k⁻¹h alone,
    # the l left out decide k = gh
    d = _duality(name, "q")
    grp = d.smash.group
    left = _left(d.smash.algebra, d.ideal)
    mul, inv = grp.mul, grp.inv
    shapes = {
        "true": lambda g, h, k: [mul(g, h)],
        "empty": lambda g, h, k: [],
        "h=kl": lambda g, h, k: [mul(inv(k), h)],
        "k=gh": lambda g, h, k: range(grp.order) if k == mul(g, h) else [],
        "k=gh at two": lambda g, h, k: ({mul(g, h), mul(inv(k), h)}
                                        if k == mul(g, h) else []),
    }
    tallies = {}
    for shape, where in shapes.items():
        table = _reshaped_left(d, left, where)
        tallies[shape] = _delta_convention_tally(d, table)
        assert tallies[shape] == _per_product_tally(d, table), shape
    assert tallies["true"] == _per_product_tally(d)
    assert tallies["h=kl"][0]["h=kl"] and tallies["k=gh"][0]["k=gh"]
    if grp.order > 2:
        assert not tallies["k=gh at two"][0]["k=gh"]


@pytest.mark.parametrize("shape", ["empty", "h=kl"])
@pytest.mark.parametrize("name", SOURCES)
def test_a_reshaped_left_table_names_the_oracles_row_and_label(name, shape, monkeypatch):
    # planted in the left products decomposition_report reads: every
    # product dropped, or moved to l = k⁻¹h; ideal_product_delta fails and
    # names the first row and the least b_j#p_l the dense route names
    d = _duality(name, "q")
    B, grp = d.smash.algebra, d.smash.group
    where = {"empty": lambda g, h, k: [],
             "h=kl": lambda g, h, k: [grp.mul(grp.inv(k), h)]}[shape]
    table = _reshaped_left(d, _left(B, d.ideal), where)
    conventions, first = _per_product_tally(d, table)
    assert first is not None and not conventions["l=gh"]
    multiples = B.multiples

    def planted(x, left=True):
        rows = [t for t, r in enumerate(d.ideal.basis) if r is x]
        return table[rows[0]] if left and rows else multiples(x, left)

    monkeypatch.setattr(B, "multiples", planted)
    delta = {c.name: c for c in decomposition_report(d)}["duality.ideal_product_delta"]
    assert delta.status == "fail"
    assert delta.measured == {f"matches[{k}]": v for k, v in sorted(conventions.items())}
    row, b = first
    assert delta.witnesses == [f"{B.labels[b]} times ideal[{row}] differs "
                               f"from the l=gh prediction"]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", SOURCES)
def test_tally_on_a_mixed_basis_of_the_ideal_matches_the_dense_route(name, field):
    # the echelon rows of the ideal are unit vectors on every instance here,
    # so the tally also gets a basis in which each row adds 3 times the next
    # row of its block (a unitriangular change of basis), and one in which
    # a row also mixes two blocks once; it must read the blocks and the
    # A-coordinates of such rows as the dense route does
    d = _duality(name, field)
    smash, B = d.smash, d.smash.algebra
    basis = basis_of(d.ideal)
    blocks = [_block_of(smash, v) for v in basis]
    three = B.field.reduce(3)
    for mix_blocks in (False, True):
        rows, mixed = [], False
        for t, v in enumerate(basis):
            later = [u for u in range(t + 1, len(basis))
                     if blocks[u] == blocks[t] or (mix_blocks and not mixed)]
            if later:
                mixed |= blocks[later[0]] != blocks[t]
                v = [B.field.reduce(x + three * y) for x, y in zip(v, basis[later[0]])]
            rows.append(sparse(v))
        assert Subspace.span(B.field, B.dim, rows) == d.ideal
        assert mixed == mix_blocks
        assert any(len(r) > 1 for r in rows)
        ideal = Subspace(B.field, B.dim, dict(enumerate(rows)))
        bent = DualityData(smash, d.mat, d.phi, d.corner_idempotent, d.kernel,
                           d.image, ideal)
        tally = _delta_convention_tally(bent, _left(B, ideal))
        assert tally == _per_product_tally(bent)
        if not mixed:
            assert tally == _delta_convention_tally(d, _left(B, d.ideal))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", SOURCES)
def test_entry_identity_and_corner_match_dense_routes(name, field):
    d = _duality(name, field)
    pa = d.smash.skew.action
    assert _per_k_entry_identity(pa) is None
    pierce = next(c for c in corner_report(d) if c.name == "duality.image_pierce")
    dense_pierce = _dense_pierce(d.mat, d.corner_idempotent)
    assert pierce.measured["pierce_dim"] == dense_pierce.dim
    assert dense_pierce == d.image
    composite = d.phi.compose(d.smash.embed_skew_map)
    assert map_matrix(composite) == _dense_composite(d)
    composite_kernel = kernel(d.mat.field, _dense_composite(d))
    assert composite.kernel() == composite_kernel
    injective = skew_injectivity_report(d)[0]
    assert injective.measured["kernel_dim"] == composite_kernel.dim


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", SOURCES)
def test_twisted_ring_matches_dense_route(name, field):
    skew = _duality(name, field).smash.skew
    products, unit, embed = _dense_skew(skew.action)
    assert skew.algebra.products == tuple(products)
    assert skew.algebra.unit == unit
    e = skew.group.identity
    assert [skew.inject(e, {i: skew.algebra.field.one})
            for i in range(skew.action.algebra.dim)] == embed
    n = skew.group.order
    for g in range(n):
        for h in range(n):
            assert component_product_span(skew, g, h) == _dense_component_span(skew, g, h)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", SOURCES)
def test_block_subspaces_and_cross_products_match_dense_routes(name, field):
    d = _duality(name, field)
    smash, pa = d.smash, d.smash.skew.action
    assert kernel_formula_subspace(smash) == _dense_kernel_formula(smash)
    assert complement_ideal_subspace(smash) == _dense_complement(smash) == d.ideal
    entrywise = next(c for c in corner_report(d) if c.name == "duality.image_entrywise")
    dense_entrywise = _dense_entrywise(pa, d.mat)
    assert entrywise.measured["entrywise_dim"] == dense_entrywise.dim
    assert (entrywise.status == "pass") == (dense_entrywise == d.image)
    assert d.corner_idempotent == _dense_corner_idempotent(d)
    argument = skew_injectivity_report(d)[1]
    assert (argument.status == "pass") == _dense_injectivity_argument(pa)
    B = smash.algebra
    assert _cross_product_witness(B, d.ideal, d.kernel) is None
    assert _pairwise_cross_witness(B, d.ideal, d.kernel) is None


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", SOURCES)
def test_corner_spans_match_dense_routes(name, field):
    d = _duality(name, field)
    pa, mat = d.smash.skew.action, d.mat
    alg, F = pa.algebra, pa.algebra.field
    assert _entrywise_image(pa, mat) == _dense_entrywise(pa, mat) == d.image
    assert _pierce_corner(mat, d.corner_idempotent) == d.image
    # each 1_g moved by a basis element, and the corner idempotent moved by
    # an E_b outside the corner: both routes still agree, and the moved
    # corner spans more than the image
    moved = [F.sparse({**e, g % alg.dim: e.get(g % alg.dim, 0) + 1})
             for g, e in enumerate(pa.idempotents)]
    tampered = PartialAction(pa.group, alg, moved, pa.columns, pa.ideals)
    assert _entrywise_image(tampered, mat) == _dense_entrywise(tampered, mat)
    if d.image.dim != d.image.ambient:
        b = next(b for b in range(mat.dim) if {b: F.one} not in d.image)
        bent = {**d.corner_idempotent, b: F.one}
        assert _pierce_corner(mat, bent) == _dense_pierce(mat, bent) != d.image


def _corner_checks(d):
    return {c.name: c for c in corner_report(d)}


def test_entrywise_route_with_a_moved_idempotent_names_an_image_row(monkeypatch):
    # s1: A = k×k on l_e0, r_e0, with 1_e = 1 and 1_g = l_e0, so the image
    # is the corner of e = diag(1, l_e0): E[e,e]·A, E[e,g]·l_e0, E[g,e]·l_e0
    # and E[g,g]·l_e0.  Planting 1_g = r_e0 in the entrywise route moves
    # each l_e0 entry off the identity to r_e0: same dimension, 5, but the
    # image row E[e,g]·l_e0 lies outside it (the rows E[e,e]·l_e0 and
    # E[e,e]·r_e0 before it lie inside)
    d = _duality("s1.json", "q")
    entrywise_image = duality._entrywise_image

    def moved(pa, mat):
        planted = SimpleNamespace(algebra=pa.algebra, group=pa.group,
                                  idempotents=[pa.idempotents[0], {1: 1}])
        return entrywise_image(planted, mat)

    monkeypatch.setattr(duality, "_entrywise_image", moved)
    checks = _corner_checks(d)
    entrywise = checks["duality.image_entrywise"]
    assert (entrywise.status, entrywise.measured) == (
        "fail", {"image_dim": 5, "entrywise_dim": 5})
    assert entrywise.witnesses == [
        "image row (1)*E[e,g]*l_e0 lies outside the entrywise span"]
    assert checks["duality.image_pierce"].status == "pass"


def test_pierce_route_of_the_identity_names_a_route_row(monkeypatch):
    # the corner of the identity, planted for e = diag(1, l_e0), is all of
    # M_2(A): every image row lies in it, and its first echelon row outside
    # the image is the unit vector E[e,g]·r_e0 (index 3; indices 0-2 are
    # E[e,e]·l_e0, E[e,e]·r_e0 and E[e,g]·l_e0, all in the image)
    d = _duality("s1.json", "q")
    pierce_corner = duality._pierce_corner
    identity = d.mat.unit
    monkeypatch.setattr(duality, "_pierce_corner",
                        lambda mat, e: pierce_corner(mat, identity))
    checks = _corner_checks(d)
    pierce = checks["duality.image_pierce"]
    assert (pierce.status, pierce.measured) == ("fail", {"image_dim": 5, "pierce_dim": 8})
    assert pierce.witnesses == ["pierce row (1)*E[e,g]*r_e0 lies outside the image"]
    assert checks["duality.image_entrywise"].status == "pass"


# -- tampered inputs -------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS)
def test_unit_alone_does_not_generate_m2(field):
    m2 = matrix_algebra(field_algebra(parse_field(field)), 2)
    assert center_basis(m2, m2.generators()).dim == 1
    with pytest.raises(InternalCheckFailed, match="does not commute"):
        center_basis(m2, [m2.unit])


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", ["s1.json", "split_field2_z3.json", "s3_split"])
def test_embedded_ring_alone_does_not_generate_a_partial_smash(name, field):
    smash = _duality(name, field).smash
    assert not smash.skew.action.is_global()
    iota = list(smash.embed_skew_map.columns)
    with pytest.raises(InternalCheckFailed, match="does not commute"):
        center_basis(smash.algebra, iota)


def _perturbed_actions(pa):
    """The action with one non-identity map changed, built directly so
    that no axiom check sees it."""
    field = pa.algebra.field
    one = field.one
    for g in range(pa.group.order):
        if g == pa.group.identity:
            continue
        d = pa.algebra.dim
        for r in range(d):
            for c in range(d):
                cols = [dict(col) for col in pa.columns[g]]
                cols[c][r] = cols[c].get(r, 0) + one
                columns = list(pa.columns)
                columns[g] = [field.sparse(col) for col in cols]
                yield PartialAction(pa.group, pa.algebra, pa.idempotents,
                                    columns, pa.ideals)


def _duality_refusal(pa):
    """None when the twisted ring or the smash of ``pa`` is refused;
    otherwise the text of the InternalCheckFailed of ``build_duality`` (the
    empty string when it returns), and the pair φ's multiplicativity check
    named, if any."""
    try:
        smash = build_smash(build_skew(pa))
    except (InternalCheckFailed, ValidationError):
        return None
    pairs = []
    witness = AlgebraMap._multiplicativity_witness

    def spy(self, anti=False):
        got = witness(self, anti)
        pairs.append((self.domain.labels, got))
        return got

    with pytest.MonkeyPatch.context() as m:
        m.setattr(AlgebraMap, "_multiplicativity_witness", spy)
        try:
            build_duality(smash)
        except InternalCheckFailed as exc:
            return str(exc), pairs[-1]
    return "", pairs[-1]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", ["global_z2_swap.json", "z3_restrict.json",
                                  "s3_split"])
def test_perturbed_map_fails_multiplicativity_exactly_at_the_oracles_triples(
        name, field, monkeypatch):
    # one changed entry of an α_g column: φ multiplicative on every basis
    # pair is the entry identity on every group triple, so build_duality
    # refuses φ, naming the pair, exactly when the dense route names a
    # triple; every other perturbation that reaches it is refused at φ(1).
    # The twisted ring fails with the same text as the dense route, or
    # hands the same table to make_algebra
    pa = _duality(name, field).smash.skew.action
    outcomes, tables = [], []
    for bad in _perturbed_actions(pa):
        refusal = _duality_refusal(bad)
        if refusal is not None:
            outcomes.append((refusal, _per_k_entry_identity(bad)))
        dense = _dense_skew(bad)
        tables.append((_skew_table(bad, monkeypatch),
                       dense if isinstance(dense, str) else dense[:2]))
    for (message, (labels, pair)), triple in outcomes:
        if triple is None:
            assert pair is None
            assert message == "unit does not map to the corner idempotent"
        else:
            assert message == ("matrix map is not multiplicative at "
                               f"({labels[pair[0]]}, {labels[pair[1]]})")
    # on global_z2_swap every perturbation is refused before build_duality;
    # on s3_split some pass φ's check and fail at φ(1) alone
    reasons = {"global_z2_swap.json": set(), "z3_restrict.json": {"triple"},
               "s3_split": {"triple", "unit"}}[name]
    assert {"unit" if triple is None else "triple" for _, triple in outcomes} == reasons
    assert all(new == old for new, old in tables)
    if name == "z3_restrict.json":   # some products leave their component
        assert any(isinstance(new, str) for new, _ in tables)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", ["s1.json", "split_m2_z2.json",
                                  "s3_regular_restrict.json", "s3_split"])
def test_nonzero_cross_products_name_the_oracles_pair(name, field):
    # pairs whose products do not all vanish: the complementary ideal
    # against itself and against spans of single basis vectors, both ways
    d = _duality(name, field)
    B = d.smash.algebra
    singles = [Subspace.span(B.field, B.dim, [{b: B.field.one}])
               for b in range(0, B.dim, 1 + B.dim // 16)]
    pairs = [(d.ideal, d.ideal), (d.ideal, d.kernel), (d.kernel, d.ideal)]
    pairs += [(u, d.ideal) for u in singles] + [(d.ideal, u) for u in singles]
    witnesses = [_cross_product_witness(B, ideal, kernel) for ideal, kernel in pairs]
    assert witnesses == [_pairwise_cross_witness(B, ideal, kernel)
                         for ideal, kernel in pairs]
    assert any(w and w.startswith("ideal[") for w in witnesses)
    assert any(w and w.startswith("kernel[") for w in witnesses)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", ["s1.json", "split_m2_z2.json", "s3_split"])
def test_subspace_that_is_not_an_ideal_names_the_oracles_failure(name, field):
    d = _duality(name, field)
    B = d.smash.algebra
    rows = list(d.ideal.basis)
    kernel = list(d.kernel.basis)
    # the complement without one row, and with one row moved into the kernel
    candidates = [rows[:t] + rows[t + 1:] for t in range(len(rows))]
    candidates += [rows[:t] + [{**rows[t], **kernel[0]}] + rows[t + 1:]
                   for t in range(len(rows)) if not set(rows[t]) & set(kernel[0])]
    outcomes = []
    for vectors in candidates:
        sub = Subspace.span(B.field, B.dim, vectors)
        got = _is_two_sided_ideal(B, sub, _left(B, sub))
        assert got == _own_products_two_sided(B, sub)
        outcomes.append(got)
    assert any(outcomes)


def test_non_generating_set_whose_solutions_are_central_passes():
    # on a commutative algebra every vector commutes with everything, so
    # the solution space of one idempotent is already the centre and the
    # closing check accepts it
    alg = product_of_fields(parse_field("q"), 3)
    assert center_basis(alg, [{0: 1}]).dim == alg.dim
