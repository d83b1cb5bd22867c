"""Randomized instances: any permutation of split coordinates restricted to
any nonzero 0/1 idempotent is a valid partial action, and the whole duality
layer must come out green on it.  ``restrict_global`` reads e·σ(v) on the
basis of B·e without a refusal, for any columns σ."""

from math import lcm

from hypothesis import assume, given, settings, strategies as st

from partialskew.actions import global_action, restrict_global
from partialskew.algebras import _image, ideal_basis, product_of_fields
from partialskew.duality import (build_duality, corner_report,
                                 decomposition_report, kernel_report,
                                 skew_injectivity_report)
from partialskew.fields import GF, QQ
from partialskew.groups import cyclic
from partialskew.lemma1 import dot_identities_report
from partialskew.skew import build_skew, strong_grading_test
from partialskew.smash import build_smash

from corpus_helpers import dense_restriction


def _perm_order(perm):
    seen = [False] * len(perm)
    order = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        order = lcm(order, length)
    return order


@settings(max_examples=12, deadline=None)
@given(st.permutations(range(4)), st.lists(st.booleans(), min_size=4, max_size=4),
       st.sampled_from([QQ, GF(5)]))
def test_random_restriction_duality(perm, bits, field):
    order = _perm_order(perm)
    assume(order <= 3)          # keeps the smash product small
    assume(any(bits))
    algebra = product_of_fields(field, 4)
    powers = [list(range(4))]      # perm^k, as the image of each coordinate
    for _ in range(order - 1):
        powers.append([perm[x] for x in powers[-1]])
    parent = global_action(cyclic(order), algebra,
                           [[{x: field.one} for x in power] for power in powers])
    e = {i: field.one for i, b in enumerate(bits) if b}
    pa = restrict_global(parent, e)
    assert (list(pa.idempotents), list(pa.columns)) == dense_restriction(parent, e)

    assert all(c.status == "pass" for c in dot_identities_report(pa))
    skew = build_skew(pa)
    st_result = strong_grading_test(skew)
    assert st_result["agree"]
    duality = build_duality(build_smash(skew))
    assert duality.kernel.dim + duality.image.dim == duality.smash.dim
    for rep in (kernel_report(duality), corner_report(duality),
                decomposition_report(duality), skew_injectivity_report(duality)):
        for c in rep:
            assert c.status == "pass", (c.name, c.witnesses)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([QQ, GF(5)]))
def test_restricted_image_never_leaves_the_ideal(data, field):
    # e is central, so e·y lies in B·e = span(b_i·e) for every y: the
    # coordinates restrict_global reads exist for any columns σ, valid or not
    m = data.draw(st.integers(1, 5), label="m")
    parent = product_of_fields(field, m)
    bits = data.draw(st.lists(st.booleans(), min_size=m, max_size=m), label="e")
    e = {i: field.one for i, b in enumerate(bits) if b}
    vectors = st.lists(st.integers(0, 4), min_size=m, max_size=m).map(
        lambda xs: {i: x for i, x in enumerate(xs) if x})
    cols = data.draw(st.lists(vectors, min_size=m, max_size=m), label="columns")
    v = data.draw(vectors, label="v")
    image = field.sparse(parent._mul_acc(e, _image(cols, v.items())))
    assert ideal_basis(parent, e).coordinates(image) is not None
