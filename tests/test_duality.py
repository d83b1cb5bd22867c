import sympy

import pytest

from partialskew.algebras import AlgebraMap, field_algebra
from partialskew.constructions import matrix_algebra
from partialskew.duality import (DualityData, _is_two_sided_ideal,
                                 build_duality, corner_report,
                                 decomposition_report, kernel_formula_subspace,
                                 kernel_report, skew_injectivity_report)
from partialskew.fields import GF, QQ
from partialskew.linalg import Subspace
from partialskew.skew import build_skew
from partialskew.smash import build_smash, separability_report

from corpus_helpers import map_matrix, place, z3_restricted_action
from dense_oracle import dense, identity, intersect, span_of, to_rows, unit_vector


def _smash_vec(smash, skew_vec, h):
    return {smash.index(j, h): c for j, c in skew_vec.items()}


def test_s1_map_images(s1_duality, s1_smash, s1_skew):
    d = s1_duality
    mat = d.mat
    g_gen = s1_skew.inject(1, {0: 1})
    e_bad = s1_skew.inject(0, {1: 1})

    # (1,0) at g # p_e lands on (1,0) in row g, column e
    img = d.phi.apply(_smash_vec(s1_smash, g_gen, 0))
    assert img == place(mat, 1, 0, {0: 1})
    # (0,1) at e # p_g dies
    assert d.phi.apply(_smash_vec(s1_smash, e_bad, 1)) == {}


def test_s1_corner_idempotent(s1_duality):
    mat = s1_duality.mat
    want = {**place(mat, 0, 0, {0: 1, 1: 1}), **place(mat, 1, 1, {0: 1})}
    assert s1_duality.corner_idempotent == want
    assert list(s1_duality.corner_idempotent) == sorted(want)
    assert s1_duality.phi.apply(s1_duality.smash.algebra.unit) == want


def test_s1_rank_against_sympy(s1_duality):
    # independent oracle: exact rank of the assembled 8x6 matrix
    m = map_matrix(s1_duality.phi)
    assert (len(m), len(m[0])) == (8, 6)
    sm = sympy.Matrix([[sympy.Rational(x) for x in row] for row in m])
    assert sm.rank() == 5
    assert s1_duality.image.dim == 5 and s1_duality.kernel.dim == 1


def test_s1_kernel_span(s1_duality, s1_smash, s1_skew):
    e_bad = s1_skew.inject(0, {1: 1})
    expected = _smash_vec(s1_smash, e_bad, 1)
    assert list(s1_duality.kernel.basis) == [expected]
    assert kernel_formula_subspace(s1_smash) == s1_duality.kernel


def test_s1_reports(s1_duality):
    for results in (kernel_report(s1_duality), corner_report(s1_duality),
                    decomposition_report(s1_duality),
                    skew_injectivity_report(s1_duality)):
        for c in results:
            assert c.status == "pass", (c.name, c.witnesses)


def test_s1_decomposition_dimensions(s1_duality):
    assert s1_duality.ideal.dim == 5
    assert s1_duality.kernel.dim == 1
    assert s1_duality.ideal.dim + s1_duality.kernel.dim == s1_duality.smash.dim


def test_s1_printed_delta_conventions(s1_duality):
    # the product rule's own condition holds; neither printed variant does
    results = {c.name: c for c in decomposition_report(s1_duality)}
    conv = results["duality.ideal_product_delta"].measured
    assert conv["matches[l=gh]"] is True
    assert conv["matches[k=gh]"] is False
    assert conv["matches[h=kl]"] is False


def test_global_degeneration(global_swap_duality):
    d = global_swap_duality
    assert d.kernel.is_zero()
    assert d.corner_idempotent == d.mat.unit
    assert d.smash.dim == d.mat.dim == 8
    assert d.image.dim == d.image.ambient


def test_z3_restriction_kernel_agreement():
    smash = build_smash(build_skew(z3_restricted_action()))
    d = build_duality(smash)
    assert d.kernel.dim == 4 and d.image.dim == 8
    for c in kernel_report(d) + corner_report(d) + decomposition_report(d):
        assert c.status == "pass", (c.name, c.witnesses)


def test_trivial_group_degeneration():
    # |G| = 1: the smash product is the algebra itself and the matrix map
    # is the identity
    from partialskew.actions import trivial_from_split
    from partialskew.algebras import product_of_fields
    from partialskew.groups import cyclic

    pa = trivial_from_split(product_of_fields(QQ, 1), product_of_fields(QQ, 1),
                            cyclic(1))
    d = build_duality(build_smash(build_skew(pa)))
    assert d.smash.dim == 2 and d.mat.dim == 2
    assert map_matrix(d.phi) == to_rows(identity(2), 2)
    assert d.kernel.is_zero() and d.image.dim == d.image.ambient
    for c in separability_report(d.smash):
        assert c.status == "pass"


def test_cross_products_zero_names_first_pair(s1_duality):
    # a kernel replaced by the ideal itself: the first nonzero product, in
    # (ideal index, kernel index, ideal·kernel before kernel·ideal) order,
    # is found here by dense products and must be the witness
    d = s1_duality
    bad = DualityData(d.smash, d.mat, d.phi, d.corner_idempotent, d.ideal,
                      d.image, d.ideal)
    B = d.smash.algebra
    expected = next(
        text
        for i, v in enumerate(d.ideal.basis)
        for j, w in enumerate(d.ideal.basis)
        for text, prod in ((f"ideal[{i}]*kernel[{j}] is nonzero", B.mul(v, w)),
                           (f"kernel[{j}]*ideal[{i}] is nonzero", B.mul(w, v)))
        if prod)
    results = {c.name: c for c in decomposition_report(bad)}
    cross = results["duality.cross_products_zero"]
    assert cross.status == "fail"
    assert cross.witnesses == [expected]


@pytest.fixture(scope="module")
def z3_duality(z3_action):
    return build_duality(build_smash(build_skew(z3_action)))


def _direct_sum_with_ideal(d, ideal):
    """The ``duality.direct_sum`` check of d with its ideal replaced."""
    bent = DualityData(d.smash, d.mat, d.phi, d.corner_idempotent, d.kernel,
                       d.image, ideal)
    return next(c for c in decomposition_report(bent) if c.name == "duality.direct_sum")


def test_direct_sum_names_the_kernel_vector_an_enlarged_ideal_meets(z3_duality):
    # the ideal plus the last kernel row meets the kernel in that row alone,
    # so no earlier kernel vector lies in the ideal plus the ones before it
    d = z3_duality
    B = d.smash.algebra
    last = d.kernel.dim - 1
    ideal = d.ideal + Subspace.span(B.field, B.dim, [d.kernel.basis[last]])
    assert intersect(ideal, d.kernel).dim == 1
    got = _direct_sum_with_ideal(d, ideal)
    assert got.status == "fail"
    assert got.measured == {"intersection_dim": 1, "sum_dim": B.dim, "dim": B.dim}
    assert got.witnesses == [f"kernel[{last}] lies in ideal + kernel[:{last}]"]


def test_direct_sum_names_the_first_label_a_shrunken_ideal_misses(z3_duality):
    # the ideal without its first echelon row: the sum is direct but one
    # short of the smash, and the first basis vector that raises the dense
    # rank of ideal + kernel is the witness
    d = z3_duality
    B = d.smash.algebra
    ideal = Subspace.span(B.field, B.dim, d.ideal.basis[1:])
    rows = [dense(v, B.dim) for v in ideal.basis + d.kernel.basis]
    first = next(b for b in range(B.dim)
                 if span_of(B.field, B.dim, rows + [unit_vector(B.dim, b)]).dim > len(rows))
    got = _direct_sum_with_ideal(d, ideal)
    assert got.status == "fail"
    assert got.measured == {"intersection_dim": 0, "sum_dim": B.dim - 1, "dim": B.dim}
    assert got.witnesses == [f"{B.labels[first]} lies outside ideal + kernel"]


def _decomposition_check(d, ideal, name):
    """The check ``name`` of the decomposition report of d with its ideal
    replaced."""
    bent = DualityData(d.smash, d.mat, d.phi, d.corner_idempotent, d.kernel,
                       d.image, ideal)
    return next(c for c in decomposition_report(bent) if c.name == name)


def test_restricted_bijection_names_the_first_dependent_ideal_row(z3_duality):
    # the ideal plus a kernel row: its rows are one more than the rank of
    # their images, and the first row whose image lies in the span of the
    # earlier ones is found here by dense rank
    d = z3_duality
    B = d.smash.algebra
    ideal = d.ideal + Subspace.span(B.field, B.dim, [d.kernel.basis[-1]])
    images = [dense(d.phi.apply(r), d.mat.dim) for r in ideal.basis]
    first = next(t for t in range(len(images))
                 if span_of(B.field, d.mat.dim, images[:t + 1]).dim == t)
    got = _decomposition_check(d, ideal, "duality.restricted_bijection")
    assert (got.status, got.measured) == ("fail", {"restricted_rank": 8, "corner_dim": 8})
    assert got.witnesses == [f"phi(ideal[{first}]) lies in the span of phi(ideal[:{first}])"]


def test_restricted_bijection_names_the_first_image_row_a_shrunken_ideal_misses(z3_duality):
    # the ideal without its first echelon row maps injectively onto a
    # proper part of the corner: the first echelon row of φ's image outside
    # the restricted span is the witness
    d = z3_duality
    B = d.smash.algebra
    ideal = Subspace.span(B.field, B.dim, d.ideal.basis[1:])
    restricted = Subspace.span(B.field, d.mat.dim, [d.phi.apply(r) for r in ideal.basis])
    row = next(v for v in d.image.basis if v not in restricted)
    got = _decomposition_check(d, ideal, "duality.restricted_bijection")
    assert (got.status, got.measured) == ("fail", {"restricted_rank": 7, "corner_dim": 8})
    assert got.witnesses == [
        f"image row {d.mat.format_vec(row)} lies outside the restricted span"]


def test_skew_embedding_injective_names_a_kernel_row(z3_duality):
    # φ with every column b_1#p_h zeroed kills ι(b_1) = Σ_h b_1#p_h and no
    # other element of the twisted ring
    d = z3_duality
    smash = d.smash
    n = smash.group.order
    cols = [{} if idx // n == 1 else col for idx, col in enumerate(d.phi.columns)]
    bent = DualityData(smash, d.mat, AlgebraMap(smash.algebra, d.mat, cols),
                       d.corner_idempotent, d.kernel, d.image, d.ideal)
    got = next(c for c in skew_injectivity_report(bent)
               if c.name == "duality.skew_embedding_injective")
    assert (got.status, got.measured) == ("fail", {"kernel_dim": 1, "skew_dim": 4})
    label = smash.skew.algebra.labels[1]
    assert got.witnesses == [f"twisted ring row (1)*{label} maps to 0 under phi"]


def _two_sided(algebra, subspace):
    left = [algebra.multiples(r) for r in subspace.basis]
    return _is_two_sided_ideal(algebra, subspace, left)


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_two_sided_ideal_check_on_a_left_ideal(field):
    # span{E11, E21} (first column) is a left ideal of M2 but not a right
    # one: E11·E12 = E12 escapes, first at b = E12 on the right
    m2 = matrix_algebra(field_algebra(field), 2)
    one = {0: field.one}
    column = Subspace.span(field, 4, [place(m2, 0, 0, one), place(m2, 1, 0, one)])
    assert _two_sided(m2, column) == "right multiple of E[0,1]*1 escapes"
    row = Subspace.span(field, 4, [place(m2, 0, 0, one), place(m2, 0, 1, one)])
    assert _two_sided(m2, row) == "left multiple of E[1,0]*1 escapes"
    full = Subspace.span(field, 4, identity(4))
    assert _two_sided(m2, full) is None
    assert _two_sided(m2, Subspace(field, 4, {})) is None
