from fractions import Fraction
from functools import partial
from itertools import permutations
import re

import pytest

from partialskew.actions import (global_action, make_partial_action,
                                 restrict_global, trivial_from_split)
from partialskew.algebras import AlgebraMap, field_algebra, product_of_fields
from partialskew.constructions import matrix_algebra
from partialskew.errors import NotCentralIdempotent, NotIsoOnIdeal, ValidationError
from partialskew.fields import GF, QQ
from partialskew.groups import cyclic, symmetric
from partialskew.lemma1 import dot_identities_report
from partialskew.scenarios import (_matrix, _vector, build_algebra, build_group,
                                   fixture_path, load_scenario)

from corpus_helpers import corrupted_action_variants, dense_restriction, split_action
from dense_oracle import identity, to_columns


def test_split_action_accepted(s1_action):
    assert [s.dim for s in s1_action.ideals] == [2, 1]
    assert s1_action.idempotents[1] == {0: 1}
    assert not s1_action.is_global()


def test_global_action_accepted(global_swap_action):
    assert global_swap_action.is_global()
    assert all(s.dim == s.ambient for s in global_swap_action.ideals)


def test_degenerate_zero_ideal_accepted():
    # a vanishing non-identity marker forces the zero map, which must pass
    algebra = product_of_fields(QQ, 2)
    pa = make_partial_action(
        cyclic(2), algebra,
        [{0: 1, 1: 1}, {}],
        [identity(2), [{}, {}]])
    assert pa.ideals[1].is_zero()


def test_corrupted_variants_rejected():
    for name, thunk, expected in corrupted_action_variants():
        with pytest.raises(expected):
            thunk()


def test_dot_evaluation(s1_action):
    pa = s1_action
    alg = pa.algebra
    e, g = (AlgebraMap(alg, alg, cols).apply for cols in pa.columns)
    a = {0: 4, 1: 7}
    assert e(a) == a                               # identity acts trivially
    assert g(alg.unit) == {0: 1}                   # image of the unit
    assert g({1: 5}) == {}
    assert g({0: 1, 1: 1}) == {0: 1}


def test_dot_identities_all_pass(s1_action, global_swap_action, z3_action):
    for pa in (s1_action, global_swap_action, z3_action):
        results = dot_identities_report(pa)
        assert all(c.status == "pass" for c in results), \
            [(c.name, c.witnesses) for c in results if c.status != "pass"]


def test_kernel_identity_variants(z3_action):
    # on the rotation restriction the source and target markers differ, so
    # only the source-ideal variant of the kernel identity can hold
    results = {c.name: c for c in dot_identities_report(z3_action)}
    kc = results["lemma1.kernel_ideal"]
    assert kc.status == "pass"
    assert kc.measured["target_idempotent_variant"] is False
    assert kc.measured["kernel_dims"] == [0, 1, 1]


def test_restrict_global_examples(z3_action):
    # restriction of the 3-cycle to two coordinates: one-dimensional ideals
    assert z3_action.algebra.dim == 2
    assert [s.dim for s in z3_action.ideals] == [2, 1, 1]
    assert z3_action.idempotents[1] == {1: 1}
    assert z3_action.idempotents[2] == {0: 1}

    # restriction along the unit is the action itself
    algebra = product_of_fields(QQ, 2)
    swap = to_columns([[0, 1], [1, 0]])
    parent = global_action(cyclic(2), algebra, [identity(2), swap])
    back = restrict_global(parent, algebra.unit)
    assert back.algebra.dim == 2 and back.is_global()

    # orthogonal idempotent: all non-identity ideals vanish
    dead = restrict_global(parent, {0: 1})
    assert dead.algebra.dim == 1
    assert dead.ideals[1].is_zero()


def test_trivial_split_examples():
    assert split_action().algebra.dim == 2
    # trivial group: the split action is global
    one = trivial_from_split(product_of_fields(QQ, 1),
                             product_of_fields(QQ, 1), cyclic(1))
    assert one.is_global()
    # bigger left factor over the 3-cycle
    pa = trivial_from_split(product_of_fields(QQ, 2),
                            product_of_fields(QQ, 1), cyclic(3))
    assert [s.dim for s in pa.ideals] == [3, 2, 2]


def test_ideal_product_grading_obstruction(s1_action):
    # products of non-identity ideals miss the identity ideal exactly when
    # some marker is not the unit (feeds the strong-grading test)
    pa = s1_action
    alg = pa.algebra
    prod = alg.mul(pa.idempotents[1], pa.idempotents[1])
    assert prod == {0: 1} != alg.unit


def test_spec_named_rejections():
    # the projection with a full marker is the canonical NotIsoOnIdeal case
    algebra = product_of_fields(QQ, 2)
    with pytest.raises(NotIsoOnIdeal):
        make_partial_action(
            cyclic(2), algebra,
            [{0: 1, 1: 1}, {0: 1, 1: 1}],
            [identity(2), [{0: 1}, {}]])
    with pytest.raises(NotCentralIdempotent):
        make_partial_action(
            cyclic(2), algebra,
            [{0: 1, 1: 1}, {0: 2}],
            [identity(2), [{0: 1}, {}]])


@pytest.mark.parametrize("markers, message", [
    # E00 + E01 squares to itself but does not commute with E00; it is
    # named at its group element, before the unit check at e
    ((1, (1, 1, 0, 0)), "g=g: (1)*E[0,0]*1 + (1)*E[0,1]*1"),
    (((1, 1, 0, 0), 1), "g=e: (1)*E[0,0]*1 + (1)*E[0,1]*1"),
    ((1, (0, 0, 0, 0), (1, 0, 1, 0)), "g=g2: (1)*E[0,0]*1 + (1)*E[1,0]*1"),
])
def test_non_central_marker_is_named_at_its_element(markers, message):
    m2 = matrix_algebra(field_algebra(QQ), 2)
    markers = [m2.unit if e == 1 else dict(enumerate(e)) for e in markers]
    with pytest.raises(NotCentralIdempotent) as err:
        make_partial_action(cyclic(len(markers)), m2, markers,
                            [identity(4)] * len(markers))
    assert str(err.value) == f"not a central idempotent: {message}"


def test_restriction_to_a_non_central_idempotent_is_refused():
    m2 = matrix_algebra(field_algebra(QQ), 2)
    parent = make_partial_action(cyclic(1), m2, [m2.unit], [identity(4)])
    with pytest.raises(NotCentralIdempotent) as err:
        restrict_global(parent, {0: 1, 1: 1})
    assert str(err.value) == "not a central idempotent: (1)*E[0,0]*1 + (1)*E[0,1]*1"


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=["q", "fp:2"])
def test_restriction_to_the_zero_idempotent_is_refused(field):
    # {0: 2} is the zero idempotent over F_2: B·0 would be the zero algebra
    algebra = product_of_fields(field, 2)
    parent = global_action(cyclic(1), algebra, [identity(2)])
    for zero in ({}, {0: 0}, {0: 2} if field.characteristic else {1: 0}):
        with pytest.raises(ValidationError, match="zero idempotent"):
            restrict_global(parent, zero)


# -- restrictions against a dense route --------------------------------

def _fixture_parent(name, field):
    """The global action and the idempotent of a ``restrict_global`` fixture."""
    doc = load_scenario(fixture_path(name))
    spec = doc["action"]["restrict_global"]
    algebra = build_algebra(field, doc["algebra"])
    ctx = {"field": field, "d": algebra.dim}
    mats = [_matrix(m, "automorphism", ctx) for m in spec["automorphisms"]]
    return (global_action(build_group(doc["group"]), algebra, mats),
            _vector(spec["idempotent"], "idempotent", ctx))


def _s4_pairs_parent(field):
    """S₄ permuting the 12 ordered pairs (a, b), a ≠ b, of {0..3}, and the
    idempotent of the pairs with a in {0, 1}: the ``S₄ pairs`` document."""
    pairs = [(a, b) for a in range(4) for b in range(4) if a != b]
    position = {pair: j for j, pair in enumerate(pairs)}
    maps = [[{position[s[a], s[b]]: 1} for a, b in pairs]
            for s in sorted(permutations(range(4)))]     # the symmetric(4) order
    algebra = product_of_fields(field, len(pairs))
    return (global_action(symmetric(4), algebra, maps),
            {j: 1 for j, (a, _) in enumerate(pairs) if a < 2})


PARENTS = {"z3_restrict": partial(_fixture_parent, "z3_restrict.json"),
           "s3_regular_restrict": partial(_fixture_parent, "s3_regular_restrict.json"),
           "s4_pairs": _s4_pairs_parent}


@pytest.mark.parametrize("field", [QQ, GF(5), GF(2)], ids=["q", "fp:5", "fp:2"])
@pytest.mark.parametrize("name", PARENTS)
def test_restriction_matches_the_dense_route(name, field):
    parent, e = PARENTS[name](field)
    pa = restrict_global(parent, e)
    assert (list(pa.idempotents), list(pa.columns)) == dense_restriction(parent, e)


# -- idempotents from the Python API go through the field's scalars --------

def _split_plane_c2(field, unit, marker):
    """C₂ on k×k with the projection onto the first factor off the identity."""
    algebra = product_of_fields(field, 2)
    return make_partial_action(cyclic(2), algebra, [unit, marker],
                               [identity(2), [{0: 1}, {}]])


def test_unit_given_by_other_representatives_is_the_unit():
    pa = _split_plane_c2(GF(5), {0: 6, 1: -4}, {0: 1})
    assert pa.idempotents[0] == pa.algebra.unit == {0: 1, 1: 1}


def test_marker_given_by_other_representatives_is_stored_canonically():
    pa = _split_plane_c2(GF(5), {0: 1, 1: 1}, {0: 6, 1: 5})
    assert pa.idempotents[1] == {0: 1}
    results = {c.name: c for c in dot_identities_report(pa)}
    assert results["lemma1.unit_image"].status == "pass"
    assert all(c.status == "pass" for c in results.values())


@pytest.mark.parametrize("bad", [Fraction(1, 1), 1.0])
def test_non_int_idempotent_over_fp_is_refused(bad):
    named = re.escape(f"scalar {bad!r} is not an int representative")
    with pytest.raises(ValueError, match=named):
        _split_plane_c2(GF(5), {0: 1, 1: 1}, {0: bad})
    with pytest.raises(ValueError, match=named):
        _split_plane_c2(GF(5), {0: bad, 1: 1}, {0: 1})
