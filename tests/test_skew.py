from partialskew.actions import trivial_from_split
from partialskew.algebras import center_basis, product_of_fields
from partialskew.fields import QQ
from partialskew.groups import cyclic
from partialskew.skew import build_skew, grading_report, strong_grading_test

from corpus_helpers import global_swap_action, inject, z3_restricted_action


def test_s1_dimensions_and_basis(s1_skew):
    # sum of the ideal dimensions: 2 + 1
    assert s1_skew.dim == 3
    assert [c.dim for c in s1_skew.components] == [2, 1]
    assert s1_skew.algebra.unit == {0: 1, 1: 1}


def test_s1_products(s1_skew):
    alg = s1_skew.algebra
    mul = alg._mul_sparse
    g_gen = inject(s1_skew, 1, {0: 1})       # (1,0) in the g component
    e0 = inject(s1_skew, 0, {0: 1})
    e1 = inject(s1_skew, 0, {1: 1})
    # ((1,0) at g)^2 = (1,0)(g·(1,0)) at e = (1,0) at e
    assert mul(g_gen, g_gen) == e0
    # annihilations across the split
    assert mul(e1, g_gen) == {}
    assert mul(g_gen, e1) == {}
    # unit law
    assert mul(alg.unit, g_gen) == g_gen


def test_grading_checks(s1_skew):
    results = grading_report(s1_skew)
    assert all(c.status == "pass" for c in results)


def test_strong_grading_partial(s1_skew):
    st = strong_grading_test(s1_skew)
    assert st == {"strong": False, "global": False, "agree": True}


def test_strong_grading_global():
    skew = build_skew(global_swap_action())
    st = strong_grading_test(skew)
    assert st == {"strong": True, "global": True, "agree": True}
    assert skew.dim == 4


def test_strong_grading_trivial_group():
    pa = trivial_from_split(product_of_fields(QQ, 1),
                            product_of_fields(QQ, 1), cyclic(1))
    skew = build_skew(pa)
    assert skew.dim == 2 and skew.components[0].dim == skew.dim
    assert strong_grading_test(skew) == {"strong": True, "global": True,
                                         "agree": True}


def test_strong_grading_restriction():
    skew = build_skew(z3_restricted_action())
    st = strong_grading_test(skew)
    assert st["strong"] is False and st["global"] is False and st["agree"]
    assert skew.dim == 4


def test_skew_is_group_ring_times_factor(s1_skew):
    # the split construction yields (group ring of the left factor) x right:
    # here Q[Z2] x Q, a commutative 3-dimensional algebra
    assert center_basis(s1_skew.algebra).dim == s1_skew.dim


def test_grade_round_trip(s1_skew):
    for idx in range(s1_skew.dim):
        g, i = s1_skew.grade_of(idx)
        assert s1_skew.offsets[g] + i == idx
