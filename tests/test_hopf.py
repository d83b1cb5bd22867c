from fractions import Fraction
import re
from types import SimpleNamespace

import pytest

from partialskew import hopf
from partialskew.algebras import (StructureAlgebra, _image, field_algebra,
                                  product_of_fields)
from partialskew.constructions import group_algebra
from partialskew.errors import (Axiom2Fails, FieldMismatch, HopfAxiomFails,
                                InternalCheckFailed, NotAssociative, ValidationError)
from partialskew.fields import GF, QQ
from partialskew.groups import cyclic, symmetric
from partialskew.hopf import (HopfData, PartialHopfAction, PartialSmash, _on_leg,
                              _verify_exchange_identity, build_corner_maps,
                              build_partial_smash, build_representations,
                              coaction_report, group_hopf,
                              hopf_data_checks, hopf_lift_suite, lift_group_action,
                              make_hopf, make_partial_hopf_action,
                              operator_duality_report, partial_smash_report,
                              smash_matches_skew_report)
from partialskew.linalg import Subspace
from partialskew.skew import build_skew

from corpus_helpers import (global_swap_action, map_matrix, split_action,
                            z3_restricted_action)
from dense_oracle import (apply, dense, identity, inverse, matmul, multiply,
                          sparse, to_columns, to_rows, unit_vector)
from fp_oracle import unwrap, wrap


# Dense oracle for the sparse tables and operators of the Hopf layer: the
# hit actions on dense vectors, straight from the comultiplication triples,
# and the operators λ(h#f) and ρ(f#h) as dense rows, built column by column
# from them and the algebra's product.

def _basis(d):
    """The basis vectors of k^d as dense tuples."""
    return [unit_vector(d, i) for i in range(d)]

def hit_left(h, fvec, xvec):
    """f ⇀ x = sum of x1·f(x2)."""
    out = [0] * h.dim
    for i, c in enumerate(xvec):
        if not c:
            continue
        for k, l, v in h.comul[i]:
            if fvec[l]:
                out[k] += c * v * fvec[l]
    return tuple(map(h.algebra.field.reduce, out))


def hit_right(h, xvec, fvec):
    """x ↼ f = sum of x2·f(x1)."""
    out = [0] * h.dim
    for i, c in enumerate(xvec):
        if not c:
            continue
        for k, l, v in h.comul[i]:
            if fvec[k]:
                out[l] += c * v * fvec[k]
    return tuple(map(h.algebra.field.reduce, out))


def lambda_matrix(h, hvec, fvec):
    """Operator x ↦ h(f ⇀ x), by dense rows."""
    cols = [multiply(h.algebra, hvec, hit_left(h, fvec, x)) for x in _basis(h.dim)]
    return [list(row) for row in zip(*cols)]


def rho_matrix(h, fvec, hvec):
    """Operator x ↦ (x ↼ f)h, by dense rows."""
    cols = [multiply(h.algebra, hit_right(h, x, fvec), hvec) for x in _basis(h.dim)]
    return [list(row) for row in zip(*cols)]


def test_group_hopf_z2():
    h = group_hopf(QQ, cyclic(2))
    assert h.dim == 2
    assert h.comul == (((0, 0, QQ.one),), ((1, 1, QQ.one),))
    assert h.antipode == h.antipode_inv == [{0: 1}, {1: 1}]


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["q", "fp5"])
def test_antipode_inverse_of_s3_matches_the_dense_oracle(field):
    # S of k[S₃] sends each g to g⁻¹, and S of its dual is the transpose
    h = group_hopf(field, symmetric(3))
    for x in (h, h.dual(), h.dual().dual()):
        s = to_rows(x.antipode, x.dim)
        assert x.antipode_inv == to_columns(inverse(field, s))
    assert h.dual().dual().antipode == h.antipode


def test_perturbed_antipode_rejected():
    grp = cyclic(2)
    alg = group_algebra(QQ, grp)
    comul = [[(0, 0, QQ.one)], [(1, 1, QQ.one)]]
    counit = {0: QQ.one, 1: QQ.one}
    bad = to_columns([[1, 0], [0, -1]])
    with pytest.raises(HopfAxiomFails):
        make_hopf(alg, comul, counit, bad)


def test_perturbed_comultiplication_rejected():
    grp = cyclic(2)
    alg = group_algebra(QQ, grp)
    counit = {0: QQ.one, 1: QQ.one}
    # x is no longer grouplike: the counit law breaks
    comul = [[(0, 0, QQ.one)], [(1, 0, QQ.one)]]
    with pytest.raises(HopfAxiomFails):
        make_hopf(alg, comul, counit, identity(2))


def test_dual_of_group_hopf():
    h = group_hopf(QQ, cyclic(2))
    dual = h.dual()
    # orthogonal idempotents: isomorphic to the split plane as an algebra
    mul = dual.algebra.mul
    assert mul({0: 1}, {0: 1}) == {0: 1} and mul({0: 1}, {1: 1}) == {}
    assert dual.algebra.unit == {0: 1, 1: 1}
    double = dual.dual()
    assert double.algebra.products == h.algebra.products
    assert double.comul == h.comul and double.counit == h.counit


def test_dual_of_z3():
    dual = group_hopf(QQ, cyclic(3)).dual()
    for i in range(3):
        for j in range(3):
            assert dual.algebra.mul({i: 1}, {j: 1}) == ({i: 1} if i == j else {})


def test_hit_actions():
    h = group_hopf(QQ, cyclic(2))
    dual = h.dual()
    p_e, x = _basis(2)
    p_x = x
    eps = dense(dual.algebra.unit, 2)             # counit = unit of the dual
    assert hit_left(h, eps, x) == x
    assert hit_left(h, p_x, x) == x               # grouplike: h scaled by f(h)
    assert not any(hit_right(h, x, p_e))          # p_e vanishes on x


def test_operator_representations():
    h = group_hopf(QQ, cyclic(2))
    dual = h.dual()
    lam_map = build_representations(h)            # raises on any failure
    # left multiplication by x is the swap on the group basis
    eps = dense(dual.algebra.unit, 2)
    lam = lambda_matrix(h, _basis(2)[1], eps)
    assert lam == [[0, 1], [1, 0]]
    # identity operator from the two units
    ident = lambda_matrix(h, dense(h.algebra.unit, 2), eps)
    assert ident == [[1, 0], [0, 1]]
    assert lam_map.is_multiplicative()


def test_exchange_identity_example():
    # both sides at (x, p_e, p_x) collapse to the zero operator
    h = group_hopf(QQ, cyclic(2))
    dual = h.dual()
    p_e, x = _basis(2)
    p_x = x
    unit = dense(h.algebra.unit, 2)
    lam = lambda_matrix(h, x, p_e)
    rho = rho_matrix(h, p_x, unit)
    lhs = matmul(QQ, lam, rho)
    acc = [[0, 0], [0, 0]]
    assert lhs == acc
    rows = [[QQ.zero] * 2 for _ in range(2)]
    for u, w, m in dual.comul[1]:                 # coproduct of p_x
        s_gu = dense(dual.antipode[u], 2)
        term = matmul(QQ, rho_matrix(h, _basis(2)[w], unit),
                      lambda_matrix(h, hit_right(h, x, s_gu), p_e))
        for r in range(2):
            for s in range(2):
                rows[r][s] = rows[r][s] + m * term[r][s]
    assert rows == lhs == acc


def _first_exchange_failure(h):
    """First basis triple (a, b, c) where λ(h#f)ρ(g#1) and
    Σ ρ(g2#1)λ((h↼S(g1))#f) differ, from dense λ/ρ matrices, or None."""
    field, d = h.algebra.field, h.dim
    dual = h.dual()
    unit = dense(h.algebra.unit, d)
    basis = dual_basis = _basis(d)
    for a in range(d):
        for b in range(d):
            for c in range(d):
                lhs = matmul(field, lambda_matrix(h, basis[a], dual_basis[b]),
                             rho_matrix(h, dual_basis[c], unit))
                rhs = [[wrap(field, field.zero)] * d for _ in range(d)]
                for u, w, m in dual.comul[c]:
                    twisted = hit_right(h, basis[a], dense(dual.antipode[u], d))
                    term = matmul(field, rho_matrix(h, dual_basis[w], unit),
                                  lambda_matrix(h, twisted, dual_basis[b]))
                    rhs = [[x + wrap(field, m) * y for x, y in zip(row, trow)]
                           for row, trow in zip(rhs, term)]
                if lhs != [[unwrap(x) for x in row] for row in rhs]:
                    return a, b, c
    return None


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["q", "fp5"])
@pytest.mark.parametrize("group, first", [(cyclic(3), (1, 0, 0)),
                                          (symmetric(3), (3, 0, 0))],
                         ids=["z3", "s3"])
def test_exchange_identity_witness_matches_dense_oracle(field, group, first):
    # an identity antipode on the dual (not validated) breaks the exchange
    # identity; the sparse check must name the first failing triple of the
    # dense operator products
    h = group_hopf(field, group)
    dual = h.dual()
    ident = [{i: field.one} for i in range(h.dim)]
    h._dual = HopfData(dual.algebra, dual.comul, dual.counit, ident, ident)
    assert _first_exchange_failure(h) == first
    with pytest.raises(InternalCheckFailed) as info:
        _verify_exchange_identity(h, hopf._basis_operators(h))
    a, b, c = first
    assert str(info.value) == f"exchange identity fails at basis ({a},{b},{c})"


@pytest.mark.parametrize("field", [QQ, GF(5), GF(2)], ids=["q", "fp5", "fp2"])
def test_make_hopf_names_multiplicativity_witness(field):
    # Δ(g) = g⊗e + e⊗g with ε = (1, 0) is coassociative and counital on
    # k[Z2], but Δ(g)Δ(g) = 2(e⊗e + g⊗g) differs from Δ(g·g) = e⊗e
    alg = group_algebra(field, cyclic(2))
    one = field.one
    comul = [[(0, 0, one)], [(1, 0, one), (0, 1, one)]]
    with pytest.raises(HopfAxiomFails) as info:
        make_hopf(alg, comul, {0: one}, identity(2))
    assert info.value.axiom == "coproduct multiplicative"
    assert str(info.value).endswith("pair (g, g)")


@pytest.mark.parametrize("field", [QQ, GF(5), GF(2)], ids=["q", "fp5", "fp2"])
def test_make_hopf_names_coassociativity_witness(field):
    # Δ(g) = g⊗e + g⊗g: (Δ⊗1)Δ(g) - (1⊗Δ)Δ(g) = g⊗e⊗g, while Δ(e) = e⊗e
    # is coassociative
    alg = group_algebra(field, cyclic(2))
    one = field.one
    comul = [[(0, 0, one)], [(1, 0, one), (1, 1, one)]]
    with pytest.raises(HopfAxiomFails) as info:
        make_hopf(alg, comul, {0: one}, identity(2))
    assert str(info.value) == "Hopf axiom 'coassociativity' fails: basis g"


def test_make_hopf_refuses_a_repeated_pair():
    # ½e⊗e + ½e⊗e is e⊗e, but the dual's product table would list e twice
    # in one cell
    half = Fraction(1, 2)
    with pytest.raises(ValidationError, match="repeats a pair"):
        make_hopf(group_algebra(QQ, cyclic(2)), [[(0, 0, half), (0, 0, half)],
                                                 [(1, 1, QQ.one)]],
                  {0: QQ.one, 1: QQ.one}, identity(2))


@pytest.mark.parametrize("triple", [(-1, 2, 1), (0, 2, 1), (0.0, 0, 1), (0, True, 1)])
def test_make_hopf_refuses_a_triple_index_that_is_not_an_int_in_range(triple):
    with pytest.raises(ValidationError, match=re.escape(
            f"comultiplication triple {triple!r} needs int indices in 0..1")):
        make_hopf(group_algebra(QQ, cyclic(2)), [[triple], [(1, 1, 1)]], {0: 1, 1: 1},
                  identity(2))


@pytest.mark.parametrize("comul, counit, bad", [
    ([[(0, 0, 1.0)], [(1, 1, 1)]], {0: 1, 1: 1}, 1.0),
    ([[(0, 0, True)], [(1, 1, 1)]], {0: 1, 1: 1}, True),
    ([[(0, 0, 1)], [(1, 1, 1)]], {0: 1, 1: 1.0}, 1.0)], ids=["float", "bool", "counit"])
def test_make_hopf_refuses_inexact_values_over_q(comul, counit, bad):
    with pytest.raises(ValueError, match=re.escape(f"scalar {bad!r} is not an exact rational")):
        make_hopf(group_algebra(QQ, cyclic(2)), comul, counit, identity(2))


def test_make_hopf_reduces_values_over_fp():
    # 6 and -4 are 1 in F_5 and a coefficient 5 is 0, so this is k[Z2]
    field = GF(5)
    h = make_hopf(group_algebra(field, cyclic(2)), [[(0, 0, 6)], [(1, 1, -4), (0, 1, 5)]],
                  {0: 6, 1: 11}, [{0: 6}, {1: 1, 0: 5}])
    assert h.comul == (((0, 0, 1),), ((1, 1, 1),)) and h.counit == {0: 1, 1: 1}
    assert h.antipode == [{0: 1}, {1: 1}]
    assert h.dual().counit == {0: 1}


@pytest.mark.parametrize("field", [QQ, GF(5), GF(2)], ids=["q", "fp5", "fp2"])
@pytest.mark.parametrize("take_dual", [False, True], ids=["kS3", "k^S3"])
def test_tables_match_dense_oracle(field, take_dual):
    # k^{S3} is not cocommutative, so a transposed hit table fails here
    h = group_hopf(field, symmetric(3))
    if take_dual:
        h = h.dual()
    d = h.dim
    basis = dual_basis = _basis(d)
    for m in range(d):
        for i in range(d):
            assert h.left_hits[m][i] == sparse(hit_left(h, dual_basis[m], basis[i]))
            assert h.right_hits[m][i] == sparse(hit_right(h, basis[i], dual_basis[m]))
    for i, row in enumerate(h.comul):
        flat = [field.zero] * (d * d)
        for k, l, v in row:
            flat[k * d + l] += v
        assert h.coproduct[i] == sparse(map(field.reduce, flat))


@pytest.mark.parametrize("field", [QQ, GF(5), GF(2)], ids=["q", "fp5", "fp2"])
def test_on_leg_matches_dense_reference(field):
    # b_i ↦ table[i] is the dense matrix M whose column i is table[i], and
    # on the last leg of a vector of k²⊗k⁴ it is I₂ ⊗ M; the one column
    # kernel, _image, applies both, unreduced, scaled by c and shifted by
    # base, into what its accumulator holds (its entries are
    # representatives: over F_2 the 3 and 4 of the table are 1 and 0)
    table = [{0: 1, 2: 3}, {}, {1: 4}, {0: 2, 1: 1, 2: 1}]
    d, width = len(table), 3
    m = [[table[i].get(t, 0) for i in range(d)] for t in range(width)]
    kron = [[m[t][i] if x == y else 0 for y in range(2) for i in range(d)]
            for x in range(2) for t in range(width)]
    head, vec = (1, 0, 2, 3), (1, 2, 0, 4, 3, 0, 1, 1)
    plain, leg = sparse(apply(field, m, head)), sparse(apply(field, kron, vec))
    assert field.sparse(_image(table, sparse(head).items())) == plain
    assert _on_leg(field, table, width, sparse(vec)) == leg
    for c in (1, -1):
        for terms, want, w in ((sparse(head), plain, 0), (sparse(vec), leg, width)):
            acc = {0: 7}
            assert _image(table, terms.items(), acc, 5, c, w) is acc
            assert field.sparse(acc) == field.sparse(
                {0: 7, **{5 + t: c * x for t, x in want.items()}})


@pytest.mark.parametrize("counit, witness", [
    ({0: 1, 1: 1}, "double dual differs in antipode"),
    # a double dual that differs in two parts names the first of them
    ({0: 1, 1: 2}, "double dual differs in counit"),
])
def test_dual_axioms_names_the_differing_part(counit, witness, monkeypatch):
    # the double dual's tables are transposed from the dual's: planted in
    # that transposition, a counit and a swapped antipode
    h = group_hopf(QQ, cyclic(2))
    dual = h.dual()
    transposed = hopf._transposed
    swap = [{1: 1}, {0: 1}]

    def planted(x):
        algebra, comul, x_counit, antipode = transposed(x)
        return (algebra, comul, counit, swap) if x is dual else (
            algebra, comul, x_counit, antipode)

    monkeypatch.setattr(hopf, "_transposed", planted)
    checks, _ = hopf_data_checks(h)
    results = {c.name: c for c in checks}
    assert results["hopf.dual_axioms"].status == "fail"
    assert results["hopf.dual_axioms"].witnesses == [witness]
    assert results["hopf.operator_reps"].status == "pass"


def test_partial_hopf_action_lift(s1_action):
    pha = lift_group_action(s1_action)
    assert pha.hopf.dim == 2
    # the lift acts exactly as the underlying evaluation
    for g in range(2):
        for i in range(2):
            assert pha.acts[g][i] == s1_action.columns[g][i]


def test_global_lift_accepted():
    pha = lift_group_action(global_swap_action())
    assert pha.hopf.dim == 2


def test_unit_action_violation_rejected(s1_action):
    proj = s1_action.columns[1]
    h = group_hopf(QQ, cyclic(2))
    with pytest.raises(Axiom2Fails):
        make_partial_hopf_action(h, s1_action.algebra, [proj, proj])


def test_hopf_algebra_over_another_field_is_refused():
    # a Q Hopf algebra acting on an F_5 algebra is refused by field, before
    # the actions are looked at
    field = GF(5)
    algebra = product_of_fields(field, 2)
    mats = [identity(2), [{0: 1}, {}]]
    with pytest.raises(FieldMismatch) as info:
        make_partial_hopf_action(group_hopf(QQ, cyclic(2)), algebra, mats)
    assert str(info.value) == f"field mismatch: {QQ} vs {field}"
    with pytest.raises(FieldMismatch):
        make_partial_hopf_action(group_hopf(QQ, cyclic(2)), algebra, mats[:1])
    assert make_partial_hopf_action(group_hopf(field, cyclic(2)), algebra, mats).acts


def test_coaction_s1(s1_action):
    results = {c.name: c for c in coaction_report(lift_group_action(s1_action))}
    assert results["coaction.multiplicative"].status == "pass"
    assert results["coaction.counit"].status == "pass"
    weak = results["coaction.weak_coassociativity"]
    assert weak.status == "pass"
    assert weak.measured["strict_coassociativity"] is False
    assert weak.witnesses


def test_coaction_global_is_strict():
    results = {c.name: c
               for c in coaction_report(lift_group_action(global_swap_action()))}
    weak = results["coaction.weak_coassociativity"]
    assert weak.status == "pass"
    assert weak.measured["strict_coassociativity"] is True


def _corner_maps(pha):
    """φ and the ψ columns, from λ of ``build_representations``."""
    return build_corner_maps(pha, build_representations(pha.hopf))


def test_corner_maps_s1(s1_action):
    pha = lift_group_action(s1_action)
    phi, _ = _corner_maps(pha)                    # raises on any failure
    e = phi.apply(s1_action.algebra.unit)
    assert phi.codomain.mul(e, e) == e
    assert phi.codomain.dim == 8                  # dim A * dim End(H) = 2*4


def test_partial_smash_s1(s1_action, s1_skew):
    pha = lift_group_action(s1_action)
    ps = build_partial_smash(pha)
    assert ps.ambient.dim == 4 and ps.sub.dim == 3
    for c in partial_smash_report(ps):
        assert c.status == "pass", (c.name, c.measured)
    for c in smash_matches_skew_report(ps, s1_skew):
        assert c.status == "pass", (c.name, c.measured)


def _unchecked(s1_action, *acts):
    """An action of the order-2 group Hopf algebra on the algebra of s1 with
    these sparse columns, built directly so that no axiom is checked."""
    return PartialHopfAction(group_hopf(QQ, cyclic(2)), s1_action.algebra, list(acts))


def test_nonassociative_partial_smash_names_witness(s1_action):
    # 2·I is not an algebra map, so the twisted product on A⊗H is not
    # associative; the action is built directly to skip its validation
    pha = _unchecked(s1_action, identity(2), to_columns([[2, 0], [0, 2]]))
    with pytest.raises(NotAssociative) as info:
        build_partial_smash(pha)
    assert "not associative" in str(info.value)
    assert "(l_e0#g, l_e0#e, l_e0#e)" in str(info.value)


def test_partial_smash_global_fills_ambient():
    pa = global_swap_action()
    ps = build_partial_smash(lift_group_action(pa))
    assert ps.sub.dim == ps.ambient.dim == 4


def test_operator_duality_s1(s1_action):
    pha = lift_group_action(s1_action)
    ps = build_partial_smash(pha)
    results = {c.name: c for c in operator_duality_report(pha, ps, _corner_maps(pha))}
    assert results["opduality.multiplicative"].status == "pass"
    assert results["opduality.idempotent"].status == "pass"
    member = results["opduality.corner_membership"]
    assert member.status == "pass"
    assert member.measured["restricted_basis"] == 6


def test_full_suite_on_z3_lift():
    pa = z3_restricted_action()
    results = hopf_lift_suite(pa, build_skew(pa))
    bad = [(c.name, c.witnesses) for c in results if c.status != "pass"]
    assert not bad, bad


def test_trivial_group_hopf_degeneration():
    # one-dimensional Hopf algebra: the operator duality map is the identity
    from partialskew.actions import trivial_from_split
    from partialskew.algebras import product_of_fields

    pa = trivial_from_split(product_of_fields(QQ, 1), product_of_fields(QQ, 1),
                            cyclic(1))
    checks = hopf_lift_suite(pa, build_skew(pa))
    assert all(c.status == "pass" for c in checks)
    phi, _ = _corner_maps(lift_group_action(pa))
    assert map_matrix(phi) == [[1, 0], [0, 1]]
    assert phi.codomain.dim == 2


def test_operator_layer_on_non_grouplike_hopf():
    # the dual of the Z3 group Hopf algebra has a genuinely spread-out
    # coproduct; the whole operator layer must still validate
    d3 = group_hopf(QQ, cyclic(3)).dual()
    assert build_representations(d3).is_multiplicative()
    assert d3.dual().algebra.products == group_hopf(QQ, cyclic(3)).algebra.products


def test_noncommutative_group_hopf():
    from partialskew.groups import symmetric
    s3 = group_hopf(QQ, symmetric(3))
    assert s3.dim == 6
    dual = s3.dual()        # validates all axioms on construction
    assert dual.algebra.unit == dict.fromkeys(range(6), QQ.one)


def test_lift_rejects_tampered_comultiplication(s1_action):
    # sanity: a Hopf structure that fails validation never reaches the action
    grp = cyclic(2)
    alg = group_algebra(QQ, grp)
    with pytest.raises(ValidationError):
        make_hopf(alg, [[(0, 0, Fraction(2))], [(1, 1, QQ.one)]],
                  {0: QQ.one, 1: QQ.one}, identity(2))


def test_dual_action_direction_on_non_cocommutative_hopf():
    # k^{S3} is commutative but not cocommutative, so f⇀h and h↼f differ
    # and the side on which the dual acts is pinned; H acts on the field
    # through its counit, p_g ↦ [g = e]
    h = group_hopf(QQ, symmetric(3)).dual()
    k = field_algebra(QQ)
    pha = make_partial_hopf_action(h, k, [[{0: h.counit.get(i, 0)}] for i in range(h.dim)])
    ps = build_partial_smash(pha)
    results = {c.name: c for c in partial_smash_report(ps)
               + operator_duality_report(pha, ps, _corner_maps(pha))}
    assert sorted(results) == [
        "opduality.corner_membership", "opduality.idempotent",
        "opduality.multiplicative", "psmash.closed", "psmash.comodule_algebra",
        "psmash.dual_module_algebra", "psmash.unital"]
    bad = [(c.name, c.measured) for c in results.values() if c.status != "pass"]
    assert not bad, bad
    assert results["psmash.closed"].measured["sub_dim"] == 6
    assert results["opduality.multiplicative"].measured["dim"] == 36
    assert results["opduality.idempotent"].measured["corner_dim"] == 36
    assert results["opduality.corner_membership"].measured["restricted_basis"] == 36


def test_operator_duality_names_multiplicativity_witness(s1_action):
    # doubling ψ leaves φ linear but not multiplicative: φ(b_p b_q) scales
    # by 2 and φ(b_p)φ(b_q) by 4, so the first nonzero product is the witness
    pha = lift_group_action(s1_action)
    ps = build_partial_smash(pha)
    phi, psi = _corner_maps(pha)
    doubled = [{k: 2 * x for k, x in col.items()} for col in psi]
    results = {c.name: c for c in operator_duality_report(pha, ps, (phi, doubled))}
    mult = results["opduality.multiplicative"]
    assert mult.status == "fail"
    assert mult.witnesses == ["(l_e0#e#p_e, l_e0#e#p_e)"]


def _partial_smash_checks(pha, ambient, sub, unit_vec):
    return {c.name: c for c in
            partial_smash_report(PartialSmash(pha, ambient, sub, unit_vec,
                                              ambient.multiples(unit_vec)))}


def test_dual_module_algebra_names_unstable_corner(s1_action):
    # a corner spanned by l_e0#e + l_e0#g mixes two H-degrees, so p_e ⇀
    # leaves it; the other three sub-checks still hold
    pha = lift_group_action(s1_action)
    ps = build_partial_smash(pha)
    amb = ps.ambient
    corner = Subspace.span(QQ, amb.dim, [{0: QQ.one, 1: QQ.one}])
    check = _partial_smash_checks(pha, amb, corner, ps.unit_vec)[
        "psmash.dual_module_algebra"]
    assert check.status == "fail"
    assert check.measured == {"stable": False, "unit_acts": True,
                              "module_law": True, "closed_form": True}
    assert check.witnesses == ["stable fails at (p_e, (1)*l_e0#e + (1)*l_e0#g)"]


def test_dual_module_algebra_names_module_law_triple(s1_action):
    # right-shifting the H-degree of every product by g breaks the grading
    # the dual acts through: (l_e0#e)(l_e0#e) lands on l_e0#g, so
    # p_e ⇀ (uv) = 0 while (p_e ⇀ u)(p_e ⇀ v) = uv != 0 at the first triple
    pha = lift_group_action(s1_action)
    ps = build_partial_smash(pha)
    amb = ps.ambient
    d, grp = pha.hopf.dim, s1_action.group
    shifted = [{j: tuple((k - k % d + grp.mul(k % d, 1), v) for k, v in cell)
                for j, cell in row.items()} for row in amb.products]
    bad = StructureAlgebra(QQ, shifted, None, amb.labels)
    check = _partial_smash_checks(pha, bad, ps.sub, ps.unit_vec)[
        "psmash.dual_module_algebra"]
    assert check.status == "fail"
    assert check.measured["module_law"] is False
    assert check.witnesses[0] == "module_law fails at (p_e, (1)*l_e0#e, (1)*l_e0#e)"
    assert check.witnesses[1:] == ["closed_form fails at (p_e, l_e0#e)"]


def test_closed_names_first_escaping_product(s1_action):
    # g acts on l_e0 as the identity, so (l_e0#g)(l_e0#g) = l_e0(g▷l_e0)#g²
    # = l_e0#e, which leaves the span of l_e0#g
    pha = lift_group_action(s1_action)
    ps = build_partial_smash(pha)
    amb = ps.ambient
    line = Subspace.span(QQ, amb.dim, [{1: 1}])
    check = _partial_smash_checks(pha, amb, line, ps.unit_vec)["psmash.closed"]
    assert check.status == "fail"
    assert check.measured == {"sub_dim": 1}
    assert check.witnesses == [
        "product leaves the corner at ((1)*l_e0#g, (1)*l_e0#g)"]


def test_comodule_algebra_names_failing_property(s1_action):
    # the lift of s1 with Δ(g) = g⊗e + g⊗g and ε(g) = 0; the dual-module
    # check reads the dual, so the valid one is kept.  corho(l_e0#g)² =
    # l_e0#e⊗(e + g)² is not corho(l_e0#e) = l_e0#e⊗e.  This Δ is not
    # coassociative either, but the counit and coassociative sub-checks
    # state what ``make_hopf`` proved, so only the multiplicative one is
    # decided on a Hopf algebra that did not pass it
    pha = lift_group_action(s1_action)
    ps = build_partial_smash(pha)
    h = pha.hopf
    bad = HopfData(h.algebra, (h.comul[0], ((1, 0, 1), (1, 1, 1))), {0: 1},
                   h.antipode, h.antipode_inv)
    bad._dual = h.dual()
    check = _partial_smash_checks(
        PartialHopfAction(bad, pha.algebra, pha.acts), ps.ambient, ps.sub,
        ps.unit_vec)["psmash.comodule_algebra"]
    assert check.status == "fail"
    assert check.measured == {"multiplicative": False, "counit": True,
                              "coassociative": True}
    assert check.witnesses == ["multiplicative fails at ((1)*l_e0#g, (1)*l_e0#g)"]


def test_coaction_names_weak_coassociativity_witness(s1_action):
    # g sends l_e0 to r_e0 and kills r_e0, an algebra map that is not
    # unital, so δ stays multiplicative; the weak law holds on l_e0 but
    # fails on r_e0, while the strict law already fails on l_e0
    pha = _unchecked(s1_action, identity(2), to_columns([[0, 0], [1, 0]]))
    results = {c.name: c for c in coaction_report(pha)}
    weak = results["coaction.weak_coassociativity"]
    assert weak.status == "fail"
    assert weak.measured == {"strict_coassociativity": False}
    assert weak.witnesses == ["weak coassociativity fails on basis r_e0",
                              "strict coassociativity fails on basis l_e0"]
    assert results["coaction.multiplicative"].status == "pass"


@pytest.mark.parametrize("corner, unit, witness", [
    # the line through l_e0#g does not hold 1 = l_e0#e + r_e0#e
    (lambda ps: Subspace.span(QQ, 4, [{1: 1}]),
     lambda ps: ps.unit_vec, "the unit lies outside the corner"),
    # 2·1 lies in the corner, but (2·1)(2·1) = 4·1
    (lambda ps: ps.sub, lambda ps: {k: 2 * x for k, x in ps.unit_vec.items()},
     "the unit is not idempotent"),
    # l_e0#e is an idempotent of the corner, but (l_e0#e)(r_e0#e) = 0
    (lambda ps: ps.sub, lambda ps: {0: 1},
     "left unit law fails at ((1)*r_e0#e)"),
])
def test_unital_names_its_failure(s1_action, corner, unit, witness):
    pha = lift_group_action(s1_action)
    ps = build_partial_smash(pha)
    check = _partial_smash_checks(pha, ps.ambient, corner(ps), unit(ps))[
        "psmash.unital"]
    assert check.status == "fail"
    assert check.measured == {}
    assert check.witnesses == [witness]


def test_operator_duality_names_corner_membership_witness(s1_action):
    # restricting to the whole of A⊗H instead of its unital corner lets
    # r_e0#g in, whose image under p_g leaves the corner; the first three
    # basis vectors are the corner's own and stay inside
    pha = lift_group_action(s1_action)
    ps = build_partial_smash(pha)
    amb = ps.ambient
    everything = Subspace.span(QQ, amb.dim, [{i: 1} for i in range(amb.dim)])
    whole = PartialSmash(pha, amb, everything, ps.unit_vec, ps.unit_multiples)
    results = {c.name: c for c in operator_duality_report(pha, whole, _corner_maps(pha))}
    member = results["opduality.corner_membership"]
    assert member.status == "fail"
    assert member.measured["restricted_basis"] == 8
    assert member.witnesses == ["corner membership fails at ((1)*r_e0#g, p_g)"]
    assert results["opduality.multiplicative"].status == "pass"
    assert results["opduality.idempotent"].status == "pass"


def _doubled_ring(skew):
    """The twisted ring with every structure constant doubled (not validated)."""
    alg = skew.algebra
    doubled = StructureAlgebra(QQ, [{j: tuple((k, 2 * v) for k, v in cell)
                                     for j, cell in row.items()}
                                    for row in alg.products], alg.unit)
    return SimpleNamespace(algebra=doubled, action=skew.action, dim=skew.dim,
                           inject=skew.inject)


@pytest.mark.parametrize("corner, unit, ring, measured, witness", [
    # the line through l_e0#e is too small to be the twisted ring
    (lambda ps: Subspace.span(QQ, 4, [{0: 1}]),
     lambda ps: ps.unit_vec, lambda skew: skew,
     {"sub_dim": 1, "bijective": False, "multiplicative": True, "unital": True},
     "not bijective: corner dim 1, image dim 1, twisted ring dim 3"),
    # doubled constants: T((l_e0#e)²) = l_e0 at e, T(l_e0#e)² = 2·l_e0 at e
    (lambda ps: ps.sub, lambda ps: ps.unit_vec, _doubled_ring,
     {"sub_dim": 3, "bijective": True, "multiplicative": False, "unital": True},
     "multiplicativity fails at ((1)*l_e0#e, (1)*l_e0#e)"),
    # T(2·1) = 2·1
    (lambda ps: ps.sub, lambda ps: {k: 2 * x for k, x in ps.unit_vec.items()},
     lambda skew: skew,
     {"sub_dim": 3, "bijective": True, "multiplicative": True, "unital": False},
     "the unit does not map to the unit"),
])
def test_matches_skew_ring_names_its_failure(s1_action, s1_skew, corner, unit, ring,
                                             measured, witness):
    pha = lift_group_action(s1_action)
    ps = build_partial_smash(pha)
    u = unit(ps)
    tampered = PartialSmash(pha, ps.ambient, corner(ps), u, ps.ambient.multiples(u))
    (result,) = smash_matches_skew_report(tampered, ring(s1_skew))
    assert result.status == "fail"
    assert result.measured == {"skew_dim": 3, **measured}
    assert result.witnesses == [witness]


@pytest.mark.parametrize("action", [split_action, global_swap_action,
                                    z3_restricted_action],
                         ids=["s1", "global_swap", "z3_restrict"])
def test_lift_acts_by_the_actions_own_columns(action):
    # the lift hands α's own column lists to the axiom check, with no dense
    # copy in between, so hopf.lift_matches_group_dot states what it is made
    # of: a pass with nothing measured and no witness
    pa = action()
    pha = lift_group_action(pa)
    assert all(pha.acts[g] is pa.columns[g] for g in range(pa.group.order))
    results = {c.name: c for c in hopf_lift_suite(pa, build_skew(pa))}
    lifted = results["hopf.lift_matches_group_dot"]
    assert (lifted.status, lifted.measured, lifted.witnesses) == ("pass", {}, [])
