"""End-to-end runs on configurations the bundled corpus does not reach:
a non-abelian group (where row/column and Kronecker-index conventions are
actually distinguishable) and an action with a vanishing ideal."""

import pytest

from partialskew.actions import global_action, restrict_global, trivial_from_split
from partialskew.algebras import product_of_fields
from partialskew.duality import (build_duality, corner_report,
                                 decomposition_report, kernel_report,
                                 skew_injectivity_report)
from partialskew.fields import QQ
from partialskew.groups import cyclic, symmetric
from partialskew.hopf import hopf_lift_suite
from partialskew.lemma1 import dot_identities_report
from partialskew.skew import build_skew, strong_grading_test
from partialskew.smash import build_smash


@pytest.fixture(scope="module")
def z4_degenerate_action():
    # the 4-cycle restricted to two adjacent coordinates: the opposite
    # rotation meets the idempotent trivially, so one ideal is zero
    algebra = product_of_fields(QQ, 4)
    # the k-th power of the shift sends coordinate j to j + k
    shifts = [[{(j + k) % 4: QQ.one} for j in range(4)] for k in range(4)]
    parent = global_action(cyclic(4), algebra, shifts)
    return restrict_global(parent, {0: QQ.one, 1: QQ.one})


def _assert_duality_green(duality):
    for rep in (kernel_report(duality), corner_report(duality),
                decomposition_report(duality), skew_injectivity_report(duality)):
        for c in rep:
            assert c.status == "pass", (c.name, c.witnesses)


def test_nonabelian_full_duality():
    # index conventions (row gh vs hg, the Kronecker condition) only
    # separate over a non-abelian group; the corpus is cyclic, so this is
    # the one run that would catch a transposed convention
    pa = trivial_from_split(product_of_fields(QQ, 1), product_of_fields(QQ, 1),
                            symmetric(3))
    assert all(c.status == "pass" for c in dot_identities_report(pa))
    skew = build_skew(pa)
    assert skew.dim == 7
    assert strong_grading_test(skew) == {"strong": False, "global": False,
                                         "agree": True, "pair": (1, 1)}
    duality = build_duality(build_smash(skew))
    assert duality.smash.dim == 42 and duality.mat.dim == 72
    assert duality.kernel.dim == 5 and duality.image.dim == 37
    _assert_duality_green(duality)


def test_nonabelian_operator_representations():
    # the exchange identity composes operators in a fixed order, and the
    # smash tables put the acting factor on a fixed side; both only bite
    # over a non-abelian group.  The measured values were recorded before
    # the Hopf tables moved to one smash-product builder.
    pa = trivial_from_split(product_of_fields(QQ, 1), product_of_fields(QQ, 1),
                            symmetric(3))
    checks = {c.name: c for c in hopf_lift_suite(pa, build_skew(pa))}
    assert len(checks) == 18
    bad = [(c.name, c.witnesses) for c in checks.values() if c.status != "pass"]
    assert not bad, bad
    assert checks["hopf.operator_reps"].measured == {"end_dim": 36}
    assert checks["hopf.corner_maps"].measured["target_dim"] == 72
    assert checks["psmash.associative"].measured == {"ambient_dim": 12,
                                                     "sub_dim": 7}
    assert checks["opduality.multiplicative"].measured == {"dim": 72}
    assert checks["opduality.idempotent"].measured == {"corner_dim": 37}
    assert checks["opduality.corner_membership"].measured == {
        "restricted_basis": 42}


def test_zero_ideal_action_accepted(z4_degenerate_action):
    pa = z4_degenerate_action
    assert [s.dim for s in pa.ideals] == [2, 1, 0, 1]
    assert all(c.status == "pass" for c in dot_identities_report(pa))


def test_zero_ideal_duality(z4_degenerate_action):
    skew = build_skew(z4_degenerate_action)
    assert skew.dim == 4
    duality = build_duality(build_smash(skew))
    assert duality.smash.dim == 16
    assert duality.kernel.dim == 8 and duality.image.dim == 8
    _assert_duality_green(duality)


def test_zero_ideal_hopf_layer(z4_degenerate_action):
    pa = z4_degenerate_action
    checks = hopf_lift_suite(pa, build_skew(pa))
    bad = [(c.name, c.witnesses) for c in checks if c.status != "pass"]
    assert not bad, bad
