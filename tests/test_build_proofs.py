"""Each build invariant is proved once, by the builder that returns the
object, and the reports restate it.

``build_skew`` proves that the base algebra embeds as the identity
component, ``build_smash`` that the twisted ring embeds in its smash
product, and ``build_duality`` that φ is multiplicative and φ(1) is the
corner idempotent e, so e·e = φ(1·1) = e.  ``grading_report``, ``smash_report`` and ``corner_report`` record
those facts as passed checks.  In the Hopf layer ``make_partial_hopf_action``
proves axiom 2 (1_H ▷ a = a, the counit law of the coaction),
``build_corner_maps`` that φ is multiplicative (so φ(1) is idempotent) and
``build_representations`` that λ is an algebra map (so the operator duality
map sends 1 to φ(1)); ``coaction.counit``, ``hopf.corner_maps`` and
``opduality.idempotent`` record them.

Eight more checks restate a proof: ``grading.components_multiply``
(``build_skew`` reads each product cell of D_g·D_h off the pivots of D_gh),
``duality.kernel_two_sided`` (``build_duality`` proves φ multiplicative),
``duality.skew_embedding_argument`` (``make_partial_action`` proves each
1_g idempotent), ``hopf.axioms``'s ``antipode_rank`` (``make_hopf`` inverts
S), ``coaction.multiplicative`` (axiom 1 of ``make_partial_hopf_action``)
and the ``counit``, ``coassociative`` and ``unit_acts`` sub-checks of the
partial smash (the right counit law and coassociativity in ``make_hopf``).
``hopf.dual_axioms`` transposes the dual's tables once more and compares
them with H, whose axioms ``group_hopf`` or ``make_hopf`` proved: the
double dual's own axioms are not proved again.

Here the reports are shown to run none of those proofs, and each builder
to refuse an object that fails its proof, with its own message.

The builders, in turn, skip what a check that stays in them implies:
``build_duality`` does not square e, and ``ideal_basis`` does not test Ae
for closure, since ``is_central_idempotent`` proved e central, so
b·(ae) = (ba)e and (ae)·b = (ab)e.  Likewise ``build_duality`` runs no
entry identity beside φ's check on every basis pair, which is that
identity, and ``build_smash`` no grading loop; ``test_sparse_duality`` and
``test_smash`` pin the refusals that cover those faults.
"""

import pytest

from partialskew import duality, hopf, skew
from partialskew.actions import make_partial_action, trivial_from_split
from partialskew.algebras import (AlgebraMap, StructureAlgebra, field_algebra,
                                  ideal_basis, product_of_fields)
from partialskew.constructions import (MatrixAlgebra, TensorAlgebra,
                                       matrix_algebra)
from partialskew.duality import (build_duality, corner_report,
                                 decomposition_report, skew_injectivity_report)
from partialskew.errors import (AntipodeNotInvertible, AxiomIFails, HopfAxiomFails,
                                InternalCheckFailed, NotCentralIdempotent)
from partialskew.fields import GF, QQ
from partialskew.groups import cyclic, symmetric
from partialskew.hopf import (HopfData, PartialHopfAction, PartialSmash,
                              build_corner_maps, build_partial_smash,
                              build_representations, coaction_report, group_hopf,
                              hopf_data_checks, hopf_lift_suite, lift_group_action,
                              make_hopf, partial_smash_report)
from partialskew.linalg import Subspace
from partialskew.skew import build_skew, grading_report
from partialskew.smash import build_smash, smash_report

from dense_oracle import identity

# the proofs an embedding or the corner idempotent would take, as
# (AlgebraMap method, a stand-in that makes that proof fail)
FAILING_PROOFS = {
    "_multiplicativity_witness": lambda self, anti=False: (0, 0),
    "is_unital": lambda self: False,
    "kernel": lambda self: Subspace.span(self.domain.field, self.domain.dim, [{0: 1}]),
}


@pytest.fixture(scope="module")
def s3_action():
    k = product_of_fields(QQ, 1)
    return trivial_from_split(k, k, symmetric(3))


@pytest.fixture(scope="module")
def s3_duality(s3_action):
    return build_duality(build_smash(build_skew(s3_action)))


def _reports(d):
    return grading_report(d.smash.skew), smash_report(d.smash), corner_report(d)


@pytest.mark.parametrize("name", ["s1_duality", "s3_duality"])
def test_reports_run_no_map_proof(name, request, monkeypatch):
    d = request.getfixturevalue(name)
    expected = _reports(d)
    assert all(c.status == "pass" for checks in expected for c in checks)
    for attr in ("_multiplicativity_witness", "kernel", "is_unital", "apply"):
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
    pa = s1_smash.skew.action
    monkeypatch.setattr(pa, "idempotents", [pa.algebra.unit] * len(pa.idempotents))
    with pytest.raises(InternalCheckFailed) as err:
        build_duality(s1_smash)
    assert str(err.value) == "unit does not map to the corner idempotent"


def test_build_duality_does_not_square_the_corner_element(monkeypatch, s1_smash):
    # every sparse product in the matrix algebra read as zero: e·e = 0 would
    # differ from e, but e·e = e follows from φ multiplicative and φ(1) = e,
    # so the build forms no such product
    expected = build_duality(s1_smash).corner_idempotent
    monkeypatch.setattr(MatrixAlgebra, "mul", lambda self, x, y: {})
    assert build_duality(s1_smash).corner_idempotent == expected


def test_ideal_basis_refuses_a_marker_whose_span_is_one_sided():
    # E00 in M_2(k) is idempotent and A·E00 is a left ideal, not closed on
    # the right (E00·E01 = E01 lies outside it): is_central_idempotent
    # refuses the marker before any span is formed
    m2 = matrix_algebra(field_algebra(QQ), 2)
    e00 = {m2.slot(0, 0, 0): 1}
    span = Subspace.span(QQ, m2.dim, [m2.mul({i: 1}, {m2.slot(0, 0, 0): 1})
                                            for i in range(m2.dim)])
    left = [m2.multiples(r) for r in span.basis]
    assert duality._is_two_sided_ideal(m2, span, left) == "right multiple of E[0,1]*1 escapes"
    with pytest.raises(NotCentralIdempotent) as err:
        ideal_basis(m2, e00)
    assert str(err.value) == "not a central idempotent: (1)*E[0,0]*1"


# -- the Hopf layer --------------------------------------------------------

RESTATED = ("coaction.counit", "hopf.corner_maps", "opduality.idempotent")


def _unit_acting_twice(pha):
    """``pha`` with 1_H acting as twice the identity: axiom 2 fails, which
    only ``make_partial_hopf_action`` would refuse."""
    unit = pha.hopf.algebra.unit
    return PartialHopfAction(pha.hopf, pha.algebra, [
        [{t: 2 * v for t, v in col.items()} for col in cols] if i in unit else cols
        for i, cols in enumerate(pha.acts)])


@pytest.mark.parametrize("name", ["s1_action", "s3_action"])
def test_hopf_reports_run_no_re_proof(name, request, monkeypatch):
    pa = request.getfixturevalue(name)
    skew = build_skew(pa)
    expected = {c.name: c for c in hopf_lift_suite(pa, skew) if c.name in RESTATED}
    assert sorted(expected) == sorted(RESTATED)
    assert all(c.status == "pass" and not c.witnesses for c in expected.values())
    # φ(1)·φ(1) and Φ(1)·Φ(1) would each square an idempotent of A⊗End(H)
    square = TensorAlgebra.mul

    def refuse_squaring_an_idempotent(self, x, y):
        if (isinstance(self.tensor_factors[1], MatrixAlgebra) and x == y
                and square(self, x, x) == x):
            raise AssertionError("a report squared an idempotent of A⊗End(H)")
        return square(self, x, y)

    monkeypatch.setattr(TensorAlgebra, "mul", refuse_squaring_an_idempotent)
    got = {c.name: c for c in hopf_lift_suite(pa, skew) if c.name in RESTATED}
    assert got == expected
    counit = {c.name: c for c in coaction_report(_unit_acting_twice(lift_group_action(pa)))}
    assert counit["coaction.counit"] == expected["coaction.counit"]


def _operators_with_rho(change):
    """``hopf._basis_operators`` with every operator ρ(p_j#b_i) passed
    through ``change(j, i, op)``."""
    basis_operators = hopf._basis_operators

    def changed(h):
        lam, rho = basis_operators(h)
        return lam, [[change(j, i, op) for i, op in enumerate(row)]
                     for j, row in enumerate(rho)]
    return changed


@pytest.mark.parametrize("patch, message", [
    # λ read as not multiplicative, or as not unital
    (lambda mp: mp.setattr(AlgebraMap, "is_multiplicative", lambda self: False),
     "left operator representation is not an algebra map"),
    (lambda mp: mp.setattr(AlgebraMap, "is_unital", lambda self: False),
     "left operator representation is not an algebra map"),
    # every ρ(p_j#b_i) zero, so ρ(1) = 0 is not the identity
    (lambda mp: mp.setattr(hopf, "_basis_operators", _operators_with_rho(
        lambda j, i, op: [{} for _ in op])),
     "right operator representation is not unital"),
    # ρ(p_j#b_i) doubled for i != e: ρ(1) = Σ ρ(p_j#e) is untouched, but
    # where b_i·b_l = e the image of (p_j#b_i)(p_k#b_l) is not doubled while
    # the product of the two images is quadrupled
    (lambda mp: mp.setattr(hopf, "_basis_operators", _operators_with_rho(
        lambda j, i, op: [{r: 2 * c for r, c in col.items()} for col in op] if i else op)),
     "right operator representation is not an anti-map"),
])
def test_build_representations_refuses_with_its_message(patch, message, monkeypatch):
    h = group_hopf(QQ, symmetric(3))
    patch(monkeypatch)
    with pytest.raises(InternalCheckFailed) as err:
        build_representations(h)
    assert str(err.value) == message


def test_build_corner_maps_refuses_a_map_that_is_not_multiplicative(
        monkeypatch, s1_action):
    pha = lift_group_action(s1_action)
    lam = build_representations(pha.hopf)
    monkeypatch.setattr(AlgebraMap, "is_multiplicative", lambda self: False)
    with pytest.raises(InternalCheckFailed) as err:
        build_corner_maps(pha, lam)
    assert str(err.value) == "corner map on the algebra is not multiplicative"


# -- the eight checks restated since -----------------------------------------

def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"a report ran {what}")
    return refuse


@pytest.mark.parametrize("name", ["s1_duality", "s3_duality"])
def test_grading_and_duality_reports_run_no_re_proof(name, request, monkeypatch):
    d = request.getfixturevalue(name)

    def reports():
        return (grading_report(d.smash.skew), decomposition_report(d),
                skew_injectivity_report(d))

    expected = reports()
    names = {c.name: c for checks in expected for c in checks}
    for restated in ("grading.components_multiply", "duality.kernel_two_sided",
                     "duality.skew_embedding_argument"):
        assert names[restated].status == "pass" and not names[restated].witnesses
    two_sided = duality._is_two_sided_ideal

    def ideal_only(algebra, subspace, *left):
        if subspace is d.kernel:
            raise AssertionError("a report re-proved that the kernel is an ideal")
        return two_sided(algebra, subspace, *left)

    monkeypatch.setattr(skew, "component_product_span", _refuse("component_product_span"))
    monkeypatch.setattr(duality, "_is_two_sided_ideal", ideal_only)
    # the blocks b_i·(1 - 1_g)·1_g and b_i·1_g would be formed here
    monkeypatch.setattr(duality, "_block_subspace", _refuse("_block_subspace"))
    assert reports() == expected


def _counit_doubled(pha):
    """``pha`` over H with ε doubled, and over a dual whose unit (which is
    ε) is doubled: the right counit law fails on both sides, which only
    ``make_hopf`` and the builders of its dual would refuse."""
    h = pha.hopf
    dual = h.dual()
    bad = HopfData(h.algebra, h.comul, {k: 2 * e for k, e in h.counit.items()},
                   h.antipode, h.antipode_inv)
    unit = {k: 2 * x for k, x in dual.algebra.unit.items()}
    bad._dual = HopfData(StructureAlgebra(QQ, dual.algebra.products, unit,
                                          dual.algebra.labels),
                         dual.comul, dual.counit, dual.antipode, dual.antipode_inv)
    return PartialHopfAction(bad, pha.algebra, pha.acts)


@pytest.mark.parametrize("name", ["s1_action", "s3_action"])
def test_hopf_data_coaction_and_psmash_reports_run_no_re_proof(
        name, request, monkeypatch):
    pha = lift_group_action(request.getfixturevalue(name))
    h, ps = pha.hopf, build_partial_smash(pha)

    def reports():
        return {c.name: c for c in (hopf_data_checks(h)[0] + coaction_report(pha)
                                    + partial_smash_report(ps))}

    expected = reports()
    assert all(c.status == "pass" for c in expected.values())
    assert expected["hopf.axioms"].measured == {"dim": h.dim, "antipode_rank": h.dim}
    dual_algebra = h.dual().algebra
    witness = AlgebraMap._multiplicativity_witness

    def no_coaction_witness(self, anti=False):
        # δ maps A into A⊗H*, the only map into that tensor algebra
        factors = getattr(self.codomain, "tensor_factors", ())
        if len(factors) == 2 and factors[1] is dual_algebra:
            raise AssertionError("a report re-proved that δ is multiplicative")
        return witness(self, anti)

    # make_hopf proves coassociativity by running Δ(b_i) through the (Δ⊗1)
    # table b_k⊗b_l ↦ Δ(b_k)⊗b_l; no report may read that table again
    d, apply = h.dim, hopf._apply
    delta_left = [{kl * d + l: v for kl, v in h.coproduct[k].items()}
                  for k in range(d) for l in range(d)]

    def no_coassociativity(field, cols, x, width=0):
        if cols == delta_left:
            raise AssertionError("a report re-proved coassociativity")
        return apply(field, cols, x, width)

    # make_hopf inverted S, so no report inverts (or ranks) it again
    monkeypatch.setattr(hopf, "_inverse", _refuse("_inverse"))
    monkeypatch.setattr(AlgebraMap, "_multiplicativity_witness", no_coaction_witness)
    monkeypatch.setattr(hopf, "_apply", no_coassociativity)
    with pytest.raises(AssertionError, match="re-proved coassociativity"):
        make_hopf(h.algebra, h.comul, h.counit, h.antipode)
    assert reports() == expected
    # the counit and unit_acts sub-checks state make_hopf's counit law
    psmash = {c.name: c for c in partial_smash_report(
        PartialSmash(_counit_doubled(pha), ps.ambient, ps.sub, ps.unit_vec,
                     ps.unit_multiples))}
    assert psmash == {k: c for k, c in expected.items() if k.startswith("psmash.")}


def _legs_swapped(h):
    """``h`` with the legs of its product and of its comultiplication
    swapped: the opposite algebra with the co-opposite coalgebra."""
    alg = h.algebra
    op = [{} for _ in range(h.dim)]
    for i, row in enumerate(alg.products):
        for j, cell in row.items():
            op[j][i] = cell
    return HopfData(StructureAlgebra(alg.field, op, alg.unit, alg.labels),
                    tuple(tuple(sorted((l, k, v) for k, l, v in row)) for row in h.comul),
                    h.counit, h.antipode, h.antipode_inv)


@pytest.mark.parametrize("of_dual, part", [(False, "products"), (True, "comultiplication")],
                         ids=["kS3", "k^S3"])
def test_the_double_dual_is_compared_with_h_not_re_proved(of_dual, part, monkeypatch):
    # hopf_data_checks transposes the dual's tables once more and compares
    # them with H, whose axioms group_hopf (or make_hopf) proved, so it runs
    # no Hopf axiom check on the double dual; a transposition of the dual
    # that swaps the legs of its tables makes hopf.dual_axioms name the
    # part of H it breaks: the product of k[S3], the coproduct of k^S3
    h = group_hopf(QQ, symmetric(3))
    if of_dual:
        h = h.dual()
    dual = h.dual()
    expected = hopf_data_checks(h)[0]
    assert all(c.status == "pass" for c in expected)
    monkeypatch.setattr(hopf, "_checked_hopf", _refuse("_checked_hopf"))
    assert hopf_data_checks(h)[0] == expected

    transposed = hopf._transposed
    monkeypatch.setattr(hopf, "_transposed", lambda x: transposed(
        _legs_swapped(x) if x is dual else x))
    results = {c.name: c for c in hopf_data_checks(h)[0]}
    assert results["hopf.dual_axioms"].status == "fail"
    assert results["hopf.dual_axioms"].witnesses == [f"double dual differs in {part}"]
    assert results["hopf.operator_reps"].status == "pass"


@pytest.mark.parametrize("name", ["s1_action", "s3_action"])
def test_partial_smash_report_reads_the_unit_multiples_of_its_builder(
        name, request, monkeypatch):
    # build_partial_smash spans the corner by the multiples (x#b_i)·1 and
    # keeps them; the closed_form sub-check reads them there
    ps = build_partial_smash(lift_group_action(request.getfixturevalue(name)))
    expected = partial_smash_report(ps)
    assert all(c.status == "pass" for c in expected)
    monkeypatch.setattr(StructureAlgebra, "multiples", _refuse("multiples"))
    assert partial_smash_report(ps) == expected


def test_make_partial_action_refuses_an_idempotent_that_is_not_one():
    # 2·e0 is central, but (2·e0)² = 4·e0, so A(1 - 1_g)1_g would not vanish
    k2 = product_of_fields(QQ, 2)
    with pytest.raises(NotCentralIdempotent) as err:
        make_partial_action(cyclic(2), k2, [k2.unit, {0: 2}],
                            [identity(2), [{0: 1}, {}]])
    assert str(err.value) == "not a central idempotent: g=g: (2)*e0"


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["q", "fp5"])
def test_make_partial_action_refuses_a_map_at_the_identity_that_is_not_the_identity(field):
    # make_partial_action runs no isomorphism, Axiom II or Axiom III check
    # where g or h is e: α_e = id and 1_e = 1 imply them there
    k = product_of_fields(field, 1)
    pa = trivial_from_split(k, k, cyclic(3))
    columns = list(pa.columns)
    columns[0] = [{0: 1, 1: 1}] + columns[0][1:]
    with pytest.raises(AxiomIFails) as err:
        make_partial_action(pa.group, pa.algebra, pa.idempotents, columns)
    assert str(err.value) == ("identity component is wrong: "
                              "map at the identity is not the identity map")


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["q", "fp5"])
def test_make_partial_action_refuses_an_idempotent_at_the_identity_that_is_not_the_unit(
        field):
    # 1_g, a central idempotent, in place of 1_e
    k = product_of_fields(field, 1)
    pa = trivial_from_split(k, k, cyclic(3))
    with pytest.raises(AxiomIFails) as err:
        make_partial_action(pa.group, pa.algebra, [pa.idempotents[1]] * 3, pa.columns)
    assert str(err.value) == ("identity component is wrong: "
                              "idempotent at the identity is not the unit")


def test_build_duality_refuses_a_map_that_is_not_multiplicative(
        monkeypatch, s1_smash):
    # the refusal names the pair, by its smash labels
    monkeypatch.setattr(AlgebraMap, "_multiplicativity_witness",
                        lambda self, anti=False: (0, 1))
    with pytest.raises(InternalCheckFailed) as err:
        build_duality(s1_smash)
    assert str(err.value) == ("matrix map is not multiplicative at "
                              "((1)*l_e0 at e#p_e, (1)*l_e0 at e#p_g)")


def test_make_hopf_refuses_a_broken_counit_law():
    # ε(g) = 2: Δ(g) = g⊗g gives (ε⊗1)Δ(g) = 2g != g
    h = group_hopf(QQ, cyclic(2))
    with pytest.raises(HopfAxiomFails) as err:
        make_hopf(h.algebra, h.comul, {0: 1, 1: 2}, h.antipode)
    assert str(err.value) == "Hopf axiom 'counit' fails: basis g"


def test_make_hopf_refuses_a_singular_antipode(monkeypatch):
    h = group_hopf(QQ, cyclic(2))
    monkeypatch.setattr(hopf, "_inverse", lambda field, columns: None)
    with pytest.raises(AntipodeNotInvertible) as err:
        make_hopf(h.algebra, h.comul, h.counit, h.antipode)
    assert str(err.value) == "antipode matrix is singular"
