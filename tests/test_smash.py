from types import SimpleNamespace

import pytest

from partialskew import smash
from partialskew.actions import trivial_from_split
from partialskew.algebras import AlgebraMap, StructureAlgebra, product_of_fields
from partialskew.errors import InternalCheckFailed, NotAssociative
from partialskew.fields import GF, QQ, parse_field
from partialskew.groups import cyclic
from partialskew.linalg import Subspace
from partialskew.scenarios import (build_action, build_algebra, build_group,
                                   bundled_fixtures, fixture_path,
                                   load_scenario)
from partialskew.skew import build_skew
from partialskew.smash import (SmashAlgebra, _centrality_witness,
                               _separability_checks, _tensor_image, build_smash,
                               separability_report, smash_report)

from fp_oracle import unwrap, wrap


def test_s1_dimension(s1_smash):
    assert s1_smash.dim == 6  # 3 * |G|


def test_trivial_group_smash():
    pa = trivial_from_split(product_of_fields(QQ, 1),
                            product_of_fields(QQ, 1), cyclic(1))
    smash = build_smash(build_skew(pa))
    assert smash.dim == smash.skew.dim  # p_e is the only dual generator


def test_s1_products(s1_smash, s1_skew):
    mul = s1_smash.algebra.mul

    def at(skew_vec, h):
        return {s1_smash.index(j, h): c for j, c in skew_vec.items()}

    g_gen = s1_skew.inject(1, {0: 1})
    e_gen = s1_skew.inject(0, {0: 1})

    # ((1,0) at g # p_g)((1,0) at g # p_e) = (1,0) at e # p_e
    assert mul(at(g_gen, 1), at(g_gen, 0)) == at(e_gen, 0)
    # ((1,0) at g # p_e)^2 = 0: the dual indices are incompatible
    assert mul(at(g_gen, 0), at(g_gen, 0)) == {}
    # ((1,0) at e # p_g)((1,0) at g # p_e) = (1,0) at g # p_e
    assert mul(at(e_gen, 1), at(g_gen, 0)) == at(g_gen, 0)
    # unit law
    assert mul(s1_smash.algebra.unit, at(g_gen, 1)) == at(g_gen, 1)


def test_unit_is_sum_over_dual_generators(s1_smash):
    n = s1_smash.group.order
    unit = s1_smash.algebra.unit
    skew_unit = s1_smash.skew.algebra.unit
    assert unit == {s1_smash.index(j, h): c for j, c in skew_unit.items()
                    for h in range(n)}


def test_embedding(s1_smash, s1_skew):
    emb = s1_smash.embed_skew_map
    # (1,0) at g goes to the sum over both dual generators
    g_gen = s1_skew.inject(1, {0: 1})
    img = emb.apply(g_gen)
    (j, _), = g_gen.items()
    assert img == {s1_smash.index(j, 0): QQ.one, s1_smash.index(j, 1): QQ.one}
    assert emb.is_multiplicative() and emb.is_unital() and emb.kernel().is_zero()


def test_smash_report(s1_smash):
    assert all(c.status == "pass" for c in smash_report(s1_smash))


def test_smash_dimension_names_its_three_dimensions(s1_smash):
    # a smash one dimension larger than |R|·|G| = 3·2
    planted = SimpleNamespace(dim=7, skew=s1_smash.skew, group=s1_smash.group)
    got = next(c for c in smash_report(planted) if c.name == "smash.dimension")
    assert (got.status, got.measured) == ("fail", {"dim": 7, "skew_dim": 3, "group_order": 2})
    assert got.witnesses == ["smash dim 7 != skew dim 3 * group order 2"]


def test_perturbed_generic_cell_fails_the_closed_rule(monkeypatch, s1_skew):
    builder = smash.smash_algebra

    def perturbed(a, b, comul, acted, unit):
        alg = builder(a, b, comul, acted, unit)
        rows = [dict(row) for row in alg.products]
        rows[0][0] = tuple((k, 2 * v) for k, v in rows[0][0])
        return StructureAlgebra(alg.field, rows, alg.unit, alg.labels)

    monkeypatch.setattr(smash, "smash_algebra", perturbed)
    with pytest.raises(InternalCheckFailed,
                       match="generic and closed smash products disagree"):
        build_smash(s1_skew)


def test_wrong_grade_fails_the_associativity_check(monkeypatch, s1_skew):
    # l_e0 at e graded as g: it is idempotent, and g·g = e is not g, so the
    # projection action is not a module-algebra action and the generic
    # smash product is not associative; make_algebra names the first triple
    monkeypatch.setattr(s1_skew, "grades", (1, *s1_skew.grades[1:]))
    with pytest.raises(NotAssociative) as err:
        build_smash(s1_skew)
    assert str(err.value) == (
        "algebra is not associative at triple "
        "((1)*l_e0 at e#p_e, (1)*l_e0 at e#p_e, (1)*l_e0 at e#p_g)")


# -- separability over the twisted ring ----------------------------------

def test_separability(s1_smash, global_swap_duality):
    for c in separability_report(s1_smash):
        assert c.status == "pass", (c.name, c.witnesses)
    for c in separability_report(global_swap_duality.smash):
        assert c.status == "pass", (c.name, c.witnesses)


class TensorOverSubring:
    """B⊗B modulo the balancing relations over an embedded subring: the
    reference presentation of B⊗_R B that the freeness route of
    ``separability_report`` is checked against.

    Equality in the quotient is decided by membership of the difference in
    the relation subspace, which is spanned by xb⊗y - x⊗by over basis x, y
    of B and a basis b of the subring's image.
    """

    def __init__(self, algebra, subring_vectors):
        self.algebra = algebra
        dim = algebra.dim
        self.ambient = dim * dim
        gens = []
        mul = algebra.mul
        for b in subring_vectors:
            by = [mul(b, {y: 1}).items() for y in range(dim)]
            for x in range(dim):
                xb = mul({x: 1}, b).items()
                for y in range(dim):
                    gen = {m * dim + y: c for m, c in xb}
                    for m, c in by[y]:
                        key = x * dim + m
                        gen[key] = gen[key] - c if key in gen else -c
                    gens.append(gen)
        self.relations = Subspace.span(algebra.field, self.ambient, gens)

    def tensor(self, pairs):
        """The sum of x⊗y over the (x, y) pairs of sparse vectors of B, in
        the wrapper arithmetic over F_p."""
        field = self.algebra.field
        dim = self.algebra.dim
        out = [wrap(field, field.zero)] * self.ambient
        for x, y in pairs:
            for i, a in x.items():
                for j, b in y.items():
                    out[i * dim + j] = out[i * dim + j] + wrap(field, a) * b
        return tuple(out)

    def equal_mod_relations(self, u, v):
        return ({k: unwrap(a - b) for k, (a, b) in enumerate(zip(u, v))}
                in self.relations)

    def centralizes(self, element, subring_vectors):
        """Whether f·b = b·f in the quotient for every subring vector b."""
        mul = self.algebra.mul
        for b in subring_vectors:
            fb = self.tensor((x, mul(y, b)) for x, y in element)
            bf = self.tensor((mul(b, x), y) for x, y in element)
            if not self.equal_mod_relations(fb, bf):
                return False
        return True


def _fixture_smash(doc, field):
    group = build_group(doc["group"])
    algebra = build_algebra(field, doc["algebra"]) if "algebra" in doc else None
    return build_smash(build_skew(build_action(field, group, algebra, doc["action"])))


S3_SPLIT = {"group": {"symmetric": 3},
            "action": {"trivial_split": {"left": {"product_of_fields": 1},
                                         "right": {"product_of_fields": 1}}}}


@pytest.fixture(scope="module")
def s3_smash_fp5():
    return _fixture_smash(S3_SPLIT, GF(5))


@pytest.fixture(scope="module")
def s3_oracle_fp5(s3_smash_fp5):
    smash = s3_smash_fp5
    return TensorOverSubring(smash.algebra, smash.embed_skew_map.columns)


def _tensor_image_kernel(smash):
    """ker Φ, with Φ taken as a linear map on the dim² basis e_x⊗e_y."""
    B = smash.algebra
    dim = B.dim
    one = B.field.one
    rows = {}
    for x in range(dim):
        for y in range(dim):
            image = _tensor_image(smash, [({x: one}, {y: one})])
            for h, vec in enumerate(image):
                for k, c in vec.items():
                    rows.setdefault((h, k), {})[x * dim + y] = c
    return Subspace.kernel(B.field, dim * dim, list(rows.values()))


def _assert_relations_are_kernel(smash, oracle):
    kernel = _tensor_image_kernel(smash)
    assert kernel == oracle.relations
    dim, n = smash.dim, smash.group.order
    assert kernel.dim == dim * dim - n * dim


@pytest.mark.parametrize("field", ["q", "fp:5", "fp:2"])
@pytest.mark.parametrize("name", bundled_fixtures())
def test_balancing_relations_are_the_kernel_of_the_tensor_image(name, field):
    # the balancing relations of B⊗B over the twisted ring are exactly the
    # kernel of Φ: B⊗B → B^{|G|}, so deciding in B^{|G|} loses nothing
    smash = _fixture_smash(load_scenario(fixture_path(name)), parse_field(field))
    oracle = TensorOverSubring(smash.algebra, smash.embed_skew_map.columns)
    _assert_relations_are_kernel(smash, oracle)


def test_s3_balancing_relations_are_the_kernel_of_the_tensor_image(
        s3_smash_fp5, s3_oracle_fp5):
    assert s3_smash_fp5.dim == 42
    assert s3_oracle_fp5.relations.dim == 1764 - 252
    _assert_relations_are_kernel(s3_smash_fp5, s3_oracle_fp5)


def test_tensor_image_machinery(s1_smash):
    b = s1_smash.algebra
    one = b.field.one
    x, y = {0: one}, {2: one}
    # x·b ⊗ y and x ⊗ b·y have the same image, by construction
    for bvec in s1_smash.embed_skew_map.columns:
        assert (_tensor_image(s1_smash, [(b.mul(x, bvec), y)])
                == _tensor_image(s1_smash, [(x, b.mul(bvec, y))]))
    # but plain tensors of different basis vectors do not all collapse
    assert _tensor_image(s1_smash, [(x, x)]) != _tensor_image(s1_smash, [(y, y)])
    # the image of a sum of pure tensors is the sum of their images
    assert _tensor_image(s1_smash, [(x, x), (y, y)]) == [
        {k: u.get(k, 0) + v.get(k, 0) for k in set(u) | set(v)}
        for u, v in zip(_tensor_image(s1_smash, [(x, x)]),
                        _tensor_image(s1_smash, [(y, y)]))]


def _canonical(smash):
    return [(u, u) for u in smash.dual_units()]


def _shifted(smash, s):
    """Σ_g (1#p_g)⊗(1#p_{g·s})."""
    units = smash.dual_units()
    grp = smash.group
    return [(units[g], units[grp.mul(g, s)]) for g in range(grp.order)]


def _both_routes(smash, oracle, element):
    return (_centrality_witness(smash, element) is None,
            oracle.centralizes(element, smash.embed_skew_map.columns))


def test_non_central_element_rejected_by_both_routes(s1_smash, s3_smash_fp5,
                                                     s3_oracle_fp5):
    s1_oracle = TensorOverSubring(s1_smash.algebra, s1_smash.embed_skew_map.columns)
    for smash, oracle in ((s1_smash, s1_oracle), (s3_smash_fp5, s3_oracle_fp5)):
        e = smash.group.identity
        units = smash.dual_units()
        # (1#p_e)⊗(1#p_e) alone does not commute with a homogeneous a of
        # grade k ≠ e: a·f has x#p_e in component e, f·a has it in k^{-1}
        assert _both_routes(smash, oracle, [(units[e], units[e])]) == (False, False)
        assert _both_routes(smash, oracle, _canonical(smash)) == (True, True)
        # the shifted sums Σ_g (1#p_g)⊗(1#p_{gs}) do centralize R (both
        # routes agree); they fail only the splitting, μ = 0
        for s in range(smash.group.order):
            assert _both_routes(smash, oracle, _shifted(smash, s)) == (True, True)


def test_centralizes_names_its_witness(s1_smash, s3_smash_fp5):
    # for f = (1#p_s)⊗(1#p_s) and a = ι(x) with x of grade k, a·f is x#p_s in
    # component s while f·a is x#p_{k^{-1}s} in component k^{-1}s: the first
    # witness is the first basis vector of R outside grade e, in the first
    # of the components s and k^{-1}s
    for smash in (s1_smash, s3_smash_fp5):
        grp, skew = smash.group, smash.skew
        units = smash.dual_units()
        first = next(j for j, k in enumerate(skew.grades) if k != grp.identity)
        k = skew.grades[first]
        for s in range(grp.order):
            h = min(s, grp.mul(grp.inv(k), s))
            checks = {c.name: c for c in _separability_checks(smash, [(units[s], units[s])])}
            central = checks["separability.centralizes"]
            assert central.status == "fail"
            assert central.witnesses == [f"f*a != a*f for a = {skew.algebra.labels[first]}"
                                         f" in component p_{grp.label(h)}"]
            assert central.measured == {"ambient_dim": smash.dim ** 2,
                                        "relation_dim": smash.dim ** 2
                                        - grp.order * smash.dim}


def test_splits_multiplication_names_its_witness(s1_smash, s3_smash_fp5):
    # the first label where μ(f) = Σ x·y differs from the unit, found here
    # by dense products
    for smash in (s1_smash, s3_smash_fp5):
        B = smash.algebra
        n = smash.group.order
        canonical = _canonical(smash)
        for element in (canonical[:-1], _shifted(smash, n - 1)):
            mu = [wrap(B.field, B.field.zero)] * B.dim
            for x, y in element:
                for i, a in x.items():
                    for j, c in y.items():
                        for k, v in B.products[i].get(j, ()):
                            mu[k] = mu[k] + wrap(B.field, a) * c * v
            first = next(k for k in range(B.dim) if unwrap(mu[k]) != B.unit.get(k, 0))
            checks = {c.name: c for c in _separability_checks(smash, element)}
            split = checks["separability.splits_multiplication"]
            assert split.status == "fail"
            assert split.witnesses == [f"mu(f) differs from the unit at {B.labels[first]}"]
        assert [c.status for c in _separability_checks(smash, canonical)] == ["pass"] * 3


def test_element_nonzero_names_its_witness(s1_smash, s3_smash_fp5):
    # f = (1#p_s)⊗(1#p_s) + (-1#p_s)⊗(1#p_s): its two terms cancel, so Φ(f)
    # is zero in every component
    for smash in (s1_smash, s3_smash_fp5):
        field = smash.algebra.field
        for u in smash.dual_units():
            minus = {k: field.reduce(-c) for k, c in u.items()}
            checks = {c.name: c for c in _separability_checks(smash, [(u, u), (minus, u)])}
            nonzero = checks["separability.element_nonzero"]
            assert (nonzero.status, nonzero.measured) == ("fail", {"tensor_terms": 2})
            assert nonzero.witnesses == ["Phi(f) is zero in every p_h component"]


def test_separability_refuses_a_smash_that_is_not_free(s1_smash):
    # an embedding scaled by 2 breaks ι(b_j)·(1#p_h) = b_j#p_h at the first
    # pair, so the report must refuse before checking anything
    skew = s1_smash.skew
    doubled = AlgebraMap(
        skew.algebra, s1_smash.algebra,
        [{t: 2 * c for t, c in col.items()} for col in s1_smash.embed_skew_map.columns])
    broken = SmashAlgebra(s1_smash.algebra, skew, doubled)
    with pytest.raises(InternalCheckFailed) as err:
        separability_report(broken)
    assert str(err.value) == (
        "smash is not free over the twisted ring at "
        f"({skew.algebra.labels[0]}, p_{s1_smash.group.label(0)})")
