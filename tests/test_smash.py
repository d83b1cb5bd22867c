import pytest

from partialskew import smash
from partialskew.actions import trivial_from_split
from partialskew.algebras import StructureAlgebra, product_of_fields
from partialskew.errors import InternalCheckFailed
from partialskew.fields import QQ
from partialskew.groups import cyclic
from partialskew.skew import SkewGroupRing, build_skew
from partialskew.smash import build_smash, smash_report

from corpus_helpers import qvec


def _dual_unit(smash, skew_vec):
    """Embed a skew coefficient vector as (vector # p_h) for each h summed."""
    return smash.embed_skew_map.apply_vec(skew_vec)


def test_s1_dimension(s1_smash):
    assert s1_smash.dim == 6  # 3 * |G|


def test_trivial_group_smash():
    pa = trivial_from_split(product_of_fields(QQ, 1),
                            product_of_fields(QQ, 1), cyclic(1))
    smash = build_smash(build_skew(pa))
    assert smash.dim == smash.skew.dim  # p_e is the only dual generator


def test_s1_products(s1_smash, s1_skew):
    b = s1_smash.algebra
    zero = tuple(QQ.zero for _ in range(b.dim))

    def at(skew_vec, h):
        out = [QQ.zero] * b.dim
        for j, c in enumerate(skew_vec):
            if c:
                out[s1_smash.index(j, h)] = c
        return tuple(out)

    g_gen = s1_skew.inject(1, qvec([1, 0]))
    e_gen = s1_skew.inject(0, qvec([1, 0]))

    # ((1,0) at g # p_g)((1,0) at g # p_e) = (1,0) at e # p_e
    lhs = b.mul_vec(at(g_gen, 1), at(g_gen, 0))
    assert lhs == at(e_gen, 0)
    # ((1,0) at g # p_e)^2 = 0: the dual indices are incompatible
    assert b.mul_vec(at(g_gen, 0), at(g_gen, 0)) == zero
    # ((1,0) at e # p_g)((1,0) at g # p_e) = (1,0) at g # p_e
    assert b.mul_vec(at(e_gen, 1), at(g_gen, 0)) == at(g_gen, 0)
    # unit law
    x = b.mul_vec(b.unit, at(g_gen, 1))
    assert x == at(g_gen, 1)


def test_unit_is_sum_over_dual_generators(s1_smash):
    n = s1_smash.group.order
    unit = s1_smash.algebra.unit
    skew_unit = s1_smash.skew.algebra.unit
    for j, c in enumerate(skew_unit):
        for h in range(n):
            assert unit[s1_smash.index(j, h)] == c


def test_embedding(s1_smash, s1_skew):
    emb = s1_smash.embed_skew_map
    # (1,0) at g goes to the sum over both dual generators
    g_gen = s1_skew.inject(1, qvec([1, 0]))
    img = emb.apply_vec(g_gen)
    j = next(i for i, c in enumerate(g_gen) if c)
    assert img[s1_smash.index(j, 0)] == QQ.one
    assert img[s1_smash.index(j, 1)] == QQ.one
    assert emb.is_multiplicative() and emb.is_unital() and emb.is_injective()


def test_smash_report(s1_smash):
    assert all(c.status == "pass" for c in smash_report(s1_smash))


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


def test_wrong_grade_fails_the_module_algebra_check(monkeypatch, s1_skew):
    # l_e0 at e graded as g: it is idempotent, and g·g = e is not g
    grade_of = SkewGroupRing.grade_of
    monkeypatch.setattr(SkewGroupRing, "grade_of",
                        lambda self, j: (1, 0) if j == 0 else grade_of(self, j))
    with pytest.raises(InternalCheckFailed,
                       match="projection action is not a module-algebra action"):
        build_smash(s1_skew)
