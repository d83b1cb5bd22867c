"""The sparse duality and centre passes against the routes they replaced.

* ``algebras.center_basis`` with a generating set builds one commutator row
  per (generator, output coordinate); ``_full_center_basis`` builds all d²
  rows [x, b_j] = 0 and checks commutation with dense products.
* ``duality._left_products`` forms b·r once for the two-sided test and the
  Kronecker tally; ``_own_products_two_sided`` forms each product on its
  own, b-major, and ``_per_product_tally`` multiplies per (v, j, l).
* ``duality._verify_twisted_entry_identity`` forms each image once per
  (g, h, a, b) or per (g, h, k); ``_per_k_entry_identity`` redoes all five
  images and both products for every k.
* ``corner_report`` forms the Pierce corner e·E_b·e sparse, and φ∘ι is
  composed from sparse columns; ``_dense_pierce`` and ``_dense_composite``
  use dense ``mul_vec`` and ``Mat @``.

Each pair is compared on the bundled corpus and both S₃ documents over
q, fp:5 and fp:2, and on tampered inputs that must fail the same way.
"""

from functools import lru_cache

import pytest

from partialskew.actions import PartialAction
from partialskew.algebras import (center_basis, field_algebra, matrix_algebra,
                                  product_of_fields)
from partialskew.duality import (_block_of, _delta_convention_tally,
                                 _is_two_sided_ideal, _left_products,
                                 _verify_twisted_entry_identity, build_duality,
                                 corner_report, skew_injectivity_report)
from partialskew.errors import InternalCheckFailed
from partialskew.fields import parse_field
from partialskew.linalg import Mat, Subspace, _sparse, kernel_basis
from partialskew.scenarios import (build_action, build_algebra, build_group,
                                   bundled_fixtures, fixture_path,
                                   load_scenario)
from partialskew.skew import build_skew
from partialskew.smash import build_smash

from corpus_helpers import map_matrix
from test_golden_reports import INLINE

FIELDS = ("q", "fp:5", "fp:2")
SOURCES = tuple(bundled_fixtures()) + tuple(sorted(INLINE))


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
    centre = Subspace.kernel_from_sparse(alg.field, d, rows)
    for v in centre.basis:
        for j in range(d):
            if alg._vec_times_basis(v, j) != alg._basis_times_vec(j, v):
                raise InternalCheckFailed("central element does not commute")
    return centre


def _scaled_cells(sparse, terms):
    acc = {}
    for x, cell in terms:
        for k, v in cell:
            acc[k] = acc.get(k, 0) + x * v
    return sparse(acc)


def _own_products_two_sided(algebra, subspace):
    """The two-sided test with its own products, b-major, left first."""
    sparse = algebra.field.sparse
    prods = algebra.products
    rows = [list(r.items()) for r in subspace._rows.values()]
    for b in range(algebra.dim):
        for r in rows:
            if subspace._residual(_scaled_cells(
                    sparse, ((x, prods[b].get(j, ())) for j, x in r))):
                return False, f"left multiple of {algebra.labels[b]} escapes"
            if subspace._residual(_scaled_cells(
                    sparse, ((x, prods[i].get(b, ())) for i, x in r))):
                return False, f"right multiple of {algebra.labels[b]} escapes"
    return True, ""


def _per_product_tally(d, left=None):
    """The Kronecker tally with one sparse product per (v, j, l), or, given
    a left-product table, one lookup in it per (v, j, l)."""
    smash = d.smash
    skew = smash.skew
    pa = skew.action
    alg, grp = pa.algebra, pa.group
    B = smash.algebra
    conventions = {"l=gh": True, "k=gh": True, "h=kl": True}
    for r, v in enumerate(d.ideal.basis):
        blk = _block_of(smash, v)
        if blk is None:
            continue
        g, h = blk
        a_part = skew.project(
            tuple(v[smash.index(j, h)] for j in range(skew.dim)), g)
        for j in range(skew.dim):
            k, pos = skew.grade_of(j)
            w = alg.mul_vec(skew.component_bases[k][pos], pa.dot_vec(k, a_part))
            kg = grp.mul(k, g)
            coords = pa.ideals[kg].coordinates_of(w)
            payload = {smash.index(skew.offsets[kg] + t, h): c
                       for t, c in enumerate(coords) if c}
            for l in range(grp.order):
                b = smash.index(j, l)
                true = (B._mul_sparse({b: alg.field.one}, _sparse(v))
                        if left is None else left[r].get(b, {}))
                for name, cond in (("l=gh", l == grp.mul(g, h)),
                                   ("k=gh", k == grp.mul(g, h)),
                                   ("h=kl", h == grp.mul(k, l))):
                    if true != (payload if cond else {}):
                        conventions[name] = False
    return conventions


def _per_k_entry_identity(pa):
    """Message of the first failing (g, h, k), all images formed per k."""
    alg, grp = pa.algebra, pa.group
    dot, inv = pa.dot_vec, grp.inv
    n = grp.order
    for g in range(n):
        for h in range(n):
            gh = grp.mul(g, h)
            for k in range(n):
                hk = grp.mul(h, k)
                for a in pa.ideals[g].basis:
                    ga = dot(inv(hk), dot(inv(g), a))
                    for b in pa.ideals[h].basis:
                        lhs = dot(inv(k), dot(inv(gh), alg.mul_vec(a, dot(g, b))))
                        rhs = alg.mul_vec(ga, dot(inv(k), dot(inv(h), b)))
                        if lhs != rhs:
                            return (f"entry identity fails at ({grp.label(g)},"
                                    f"{grp.label(h)},{grp.label(k)})")
    return None


def _entry_identity_message(pa):
    try:
        _verify_twisted_entry_identity(pa)
    except InternalCheckFailed as exc:
        return str(exc)
    return None


def _dense_pierce(d):
    mat, e = d.mat, d.corner_idempotent
    return Subspace.from_vectors(mat.field, mat.dim, [
        mat.mul_vec(e, mat.mul_vec(mat.basis_element(b).coeffs, e))
        for b in range(mat.dim)])


def _dense_composite(d):
    """φ∘ι by the dense matrix product."""
    return map_matrix(d.phi) @ map_matrix(d.smash.embed_skew())


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
    left = _left_products(B, d.ideal)
    assert _is_two_sided_ideal(B, d.ideal, left) == _own_products_two_sided(B, d.ideal)
    assert _is_two_sided_ideal(B, d.kernel) == _own_products_two_sided(B, d.kernel)
    assert _delta_convention_tally(d, left) == _per_product_tally(d)
    for r, row in zip(d.ideal._rows.values(), left):
        assert all(row.get(b, {}) == B._mul_sparse({b: B.field.one}, r)
                   for b in range(B.dim))


def _reshaped_left(d, left, where):
    """A left-product table of the ideal in which b_j#p_l · v is the true
    product at l = gh (the payload) for the l in ``where(g, h, k)`` and
    empty elsewhere, for v in block (g, h) and b_j of grade k."""
    smash, grp = d.smash, d.smash.group
    out = []
    for v, row in zip(d.ideal.basis, left):
        g, h = _block_of(smash, v)
        gh = grp.mul(g, h)
        new = {}
        for j in range(smash.skew.dim):
            payload = row.get(smash.index(j, gh))
            if payload:
                for l in where(g, h, smash.skew.grade_of(j)[0]):
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
    left = _left_products(d.smash.algebra, d.ideal)
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
    assert tallies["h=kl"]["h=kl"] and tallies["k=gh"]["k=gh"]
    if grp.order > 2:
        assert not tallies["k=gh at two"]["k=gh"]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", SOURCES)
def test_entry_identity_and_corner_match_dense_routes(name, field):
    d = _duality(name, field)
    pa = d.smash.skew.action
    assert _entry_identity_message(pa) is None
    assert _per_k_entry_identity(pa) is None
    pierce = next(c for c in corner_report(d) if c.name == "duality.image_pierce")
    assert pierce.measured["pierce_dim"] == _dense_pierce(d).dim
    assert _dense_pierce(d) == d.image
    composite = d.phi.compose(d.smash.embed_skew())
    assert map_matrix(composite) == _dense_composite(d)
    assert composite.kernel() == kernel_basis(_dense_composite(d))
    injective = skew_injectivity_report(d)[0]
    assert injective.measured["kernel_dim"] == kernel_basis(_dense_composite(d)).dim


# -- tampered inputs -------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS)
def test_unit_alone_does_not_generate_m2(field):
    m2 = matrix_algebra(field_algebra(parse_field(field)), 2)
    assert center_basis(m2, m2.generators()).dim == 1
    with pytest.raises(InternalCheckFailed, match="does not commute"):
        center_basis(m2, [_sparse(m2.unit)])


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", ["s1.json", "split_field2_z3.json", "s3_split"])
def test_embedded_ring_alone_does_not_generate_a_partial_smash(name, field):
    smash = _duality(name, field).smash
    assert not smash.skew.action.is_global()
    iota = list(smash.embed_skew().columns)
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
        m = pa.maps[g]
        for r in range(m.rows):
            for c in range(m.cols):
                entries = [list(row) for row in m.entries]
                entries[r][c] = field.reduce(entries[r][c] + one)
                maps = list(pa.maps)
                maps[g] = Mat(field, entries)
                yield PartialAction(pa.group, pa.algebra, pa.idempotents,
                                    maps, pa.ideals)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", ["global_z2_swap.json", "z3_restrict.json",
                                  "s3_split"])
def test_perturbed_map_names_the_oracles_triple(name, field):
    pa = _duality(name, field).smash.skew.action
    messages = [(_entry_identity_message(bad), _per_k_entry_identity(bad))
                for bad in _perturbed_actions(pa)]
    assert all(new == old for new, old in messages)
    assert sum(new is not None for new, _ in messages) >= 1


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", ["s1.json", "split_m2_z2.json", "s3_split"])
def test_subspace_that_is_not_an_ideal_names_the_oracles_failure(name, field):
    d = _duality(name, field)
    B = d.smash.algebra
    rows = list(d.ideal._rows.values())
    kernel = list(d.kernel._rows.values())
    # the complement without one row, and with one row moved into the kernel
    candidates = [rows[:t] + rows[t + 1:] for t in range(len(rows))]
    candidates += [rows[:t] + [{**rows[t], **kernel[0]}] + rows[t + 1:]
                   for t in range(len(rows)) if not set(rows[t]) & set(kernel[0])]
    outcomes = []
    for vectors in candidates:
        sub = Subspace.from_sparse(B.field, B.dim, vectors)
        got = _is_two_sided_ideal(B, sub, _left_products(B, sub))
        assert got == _own_products_two_sided(B, sub)
        outcomes.append(got[0])
    assert not all(outcomes)


def test_non_generating_set_whose_solutions_are_central_passes():
    # on a commutative algebra every vector commutes with everything, so
    # the solution space of one idempotent is already the centre and the
    # closing check accepts it
    alg = product_of_fields(parse_field("q"), 3)
    assert center_basis(alg, [{0: 1}]).is_full()
