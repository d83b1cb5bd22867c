"""Each build invariant is proved once, by the builder that returns the
object, and the reports restate it.

``build_skew`` proves that the base algebra embeds as the identity
component, ``build_smash`` that the twisted ring embeds in its smash
product, and ``build_duality`` that φ(1) is the corner idempotent e and
e·e = e.  ``grading_report``, ``smash_report`` and ``corner_report`` record
those facts as passed checks.  Here the reports are shown to run none of
the map proofs, and each builder to refuse an object that fails its proof,
with its own message.
"""

import pytest

from partialskew import duality
from partialskew.actions import trivial_from_split
from partialskew.algebras import AlgebraMap, MatrixAlgebra, product_of_fields
from partialskew.duality import build_duality, corner_report
from partialskew.errors import InternalCheckFailed
from partialskew.fields import QQ
from partialskew.groups import symmetric
from partialskew.linalg import Subspace
from partialskew.skew import build_skew, grading_report
from partialskew.smash import build_smash, smash_report

# the proofs an embedding or the corner idempotent would take, as
# (AlgebraMap method, a stand-in that makes that proof fail)
FAILING_PROOFS = {
    "_multiplicativity_witness": lambda self, anti=False: (0, 0),
    "is_unital": lambda self: False,
    "kernel": lambda self: Subspace.from_sparse(self.domain.field,
                                                self.domain.dim, [{0: 1}]),
}


@pytest.fixture(scope="module")
def s3_duality():
    k = product_of_fields(QQ, 1)
    pa = trivial_from_split(k, k, symmetric(3))
    return build_duality(build_smash(build_skew(pa)))


def _reports(d):
    return grading_report(d.smash.skew), smash_report(d.smash), corner_report(d)


@pytest.mark.parametrize("name", ["s1_duality", "s3_duality"])
def test_reports_run_no_map_proof(name, request, monkeypatch):
    d = request.getfixturevalue(name)
    expected = _reports(d)
    assert all(c.status == "pass" for checks in expected for c in checks)
    for attr in ("_multiplicativity_witness", "kernel", "is_unital", "apply_sparse"):
        def refuse(*args, attr=attr, **kwargs):
            raise AssertionError(f"a report ran AlgebraMap.{attr}")
        monkeypatch.setattr(AlgebraMap, attr, refuse)
    assert _reports(d) == expected


@pytest.mark.parametrize("proof", sorted(FAILING_PROOFS))
def test_build_skew_refuses_a_base_that_does_not_embed(proof, monkeypatch, s1_action):
    monkeypatch.setattr(AlgebraMap, proof, FAILING_PROOFS[proof])
    with pytest.raises(InternalCheckFailed) as err:
        build_skew(s1_action)
    assert str(err.value) == "base algebra does not embed as the identity component"


@pytest.mark.parametrize("proof", sorted(FAILING_PROOFS))
def test_build_smash_refuses_a_ring_that_does_not_embed(proof, monkeypatch, s1_skew):
    monkeypatch.setattr(AlgebraMap, proof, FAILING_PROOFS[proof])
    with pytest.raises(InternalCheckFailed) as err:
        build_smash(s1_skew)
    assert str(err.value) == "twisted group ring does not embed in its smash product"


def test_build_duality_refuses_a_unit_off_the_corner_idempotent(monkeypatch, s1_smash):
    # the corner element of a global action: every 1_g the unit, so e is
    # the identity matrix, which is not φ(1) for the partial s1 action
    idempotents = duality._idempotents

    def global_idempotents(pa):
        es, comps = idempotents(pa)
        return [es[0]] * len(es), comps

    monkeypatch.setattr(duality, "_idempotents", global_idempotents)
    with pytest.raises(InternalCheckFailed) as err:
        build_duality(s1_smash)
    assert str(err.value) == "unit does not map to the corner idempotent"


def test_build_duality_refuses_a_corner_element_that_is_not_idempotent(
        monkeypatch, s1_smash):
    # every product in the matrix algebra read as zero, so e·e = 0 != e
    monkeypatch.setattr(MatrixAlgebra, "_mul_sparse", lambda self, x, y: {})
    with pytest.raises(InternalCheckFailed) as err:
        build_duality(s1_smash)
    assert str(err.value) == "corner element is not idempotent"
