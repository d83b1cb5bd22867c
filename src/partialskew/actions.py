"""Partial actions of a finite group on a structure algebra.

A partial action assigns to each group element g a central idempotent 1_g
(cutting out the ideal D_g = A·1_g) and a total endomorphism of A that kills
A·(1 - 1_{g^{-1}}) and restricts to an algebra isomorphism D_{g^{-1}} -> D_g.
``make_partial_action`` checks, exhaustively over the group and the basis:

  * every 1_g is a central idempotent, 1_e = 1 and the e-map is the identity;
  * each map vanishes off its source ideal and is a multiplicative bijection
    between the prescribed ideals;
  * the image of D_{g^{-1}} ∩ D_h is exactly D_g ∩ D_{gh} (as subspaces);
  * composing the g- and h-maps agrees with the gh-map on the overlap ideal.

The induced bilinear evaluation g·a is available as :meth:`PartialAction.dot`.
"""

from __future__ import annotations

from .algebras import (direct_product, ideal_basis, is_central_idempotent,
                       subalgebra)
from .errors import (AxiomIFails, AxiomIIFails, AxiomIIIFails,
                     NotCentralIdempotent, NotIsoOnIdeal, ValidationError)
from .linalg import Mat, Subspace, kernel_basis, vsub
from .report import check


class PartialAction:
    """Validated partial action; construct through make_partial_action."""

    __slots__ = ("group", "algebra", "idempotents", "maps", "ideals")

    def __init__(self, group, algebra, idempotents, maps, ideals):
        self.group = group
        self.algebra = algebra
        self.idempotents = tuple(idempotents)   # coefficient tuples, one per g
        self.maps = tuple(maps)                 # matrices acting on coefficients
        self.ideals = tuple(ideals)             # D_g as canonical subspaces

    def dot(self, g, a):
        """The evaluation g·a (image of a under the g-map)."""
        if isinstance(a, tuple):
            return self.maps[g].apply(a)
        return self.algebra.element(self.maps[g].apply(a.coeffs))

    def dot_vec(self, g, coeffs):
        return self.maps[g].apply(coeffs)

    def is_global(self):
        return all(e == self.algebra.unit for e in self.idempotents)

    def complement_ideal(self, g):
        """The ideal A·(1 - 1_g)."""
        alg = self.algebra
        comp = vsub(alg.field, alg.unit, self.idempotents[g])
        return Subspace.from_vectors(
            alg.field, alg.dim,
            [alg._vec_times_basis(comp, i) for i in range(alg.dim)])


def make_partial_action(group, algebra, idempotents, maps):
    """Validate the data of a partial action; raises named axiom failures."""
    n = group.order
    idempotents = [tuple(e) for e in idempotents]
    maps = list(maps)
    if len(idempotents) != n or len(maps) != n:
        raise ValidationError("need one idempotent and one map per group element")
    for e in idempotents:
        if len(e) != algebra.dim:
            raise ValidationError("idempotent coefficient vector has wrong length")
    for m in maps:
        if not isinstance(m, Mat) or m.rows != algebra.dim or m.cols != algebra.dim:
            raise ValidationError("action matrices must be square of the algebra dimension")

    for g in range(n):
        if not is_central_idempotent(algebra.element(idempotents[g])):
            raise NotCentralIdempotent(
                f"g={group.label(g)}: {algebra.format_vec(idempotents[g])}")

    e = group.identity
    if idempotents[e] != algebra.unit:
        raise AxiomIFails("idempotent at the identity is not the unit")
    if maps[e] != Mat.identity(algebra.field, algebra.dim):
        raise AxiomIFails("map at the identity is not the identity map")

    ideals = [ideal_basis(algebra, algebra.element(idempotents[g])) for g in range(n)]

    for g in range(n):
        _check_iso_on_ideal(group, algebra, idempotents, maps, ideals, g)

    for g in range(n):
        for h in range(n):
            source = ideals[group.inv(g)].intersect(ideals[h])
            image = Subspace.from_vectors(
                algebra.field, algebra.dim,
                [maps[g].apply(v) for v in source.basis])
            target = ideals[g].intersect(ideals[group.mul(g, h)])
            if image != target:
                raise AxiomIIFails(
                    group.label(g), group.label(h),
                    f"image dim {image.dim}, target dim {target.dim}")

    for g in range(n):
        for h in range(n):
            gh = group.mul(g, h)
            domain = ideals[group.inv(h)].intersect(ideals[group.inv(gh)])
            for idx, v in enumerate(domain.basis):
                if maps[g].apply(maps[h].apply(v)) != maps[gh].apply(v):
                    raise AxiomIIIFails(group.label(g), group.label(h), idx)

    return PartialAction(group, algebra, idempotents, maps, ideals)


def _check_iso_on_ideal(group, algebra, idempotents, maps, ideals, g):
    ginv = group.inv(g)
    source, target = ideals[ginv], ideals[g]
    comp = vsub(algebra.field, algebra.unit, idempotents[ginv])
    for i in range(algebra.dim):
        off = algebra._vec_times_basis(comp, i)
        if any(maps[g].apply(off)):
            raise NotIsoOnIdeal(
                group.label(g),
                f"does not vanish on the complement of its source ideal "
                f"(basis {algebra.labels[i]})")
    images = [maps[g].apply(v) for v in source.basis]
    image_span = Subspace.from_vectors(algebra.field, algebra.dim, images)
    if image_span != target or image_span.dim != source.dim:
        raise NotIsoOnIdeal(
            group.label(g),
            f"image of source ideal has dim {image_span.dim}, "
            f"target ideal has dim {target.dim} (source dim {source.dim})")
    for u in source.basis:
        gu = maps[g].apply(u)
        for v in source.basis:
            lhs = maps[g].apply(algebra.mul_vec(u, v))
            if lhs != algebra.mul_vec(gu, maps[g].apply(v)):
                raise NotIsoOnIdeal(group.label(g), "not multiplicative on its source ideal")


# -- verification suite on the dot calculus -----------------------------

def dot_identities_report(pa):
    """Exhaustive checks of the evaluation identities behind every later formula.

    Covers multiplicativity of each g-map, the twisted composition rule
    g·(h·a) = ((gh)·a)1_g, the pull-through rule (g·a)b = g·(a(g^{-1}·b)),
    the image of the unit, the round trip g·(g^{-1}·a) = a·1_g, and the
    kernel description {a : g·a = 0} = A(1-1_{g^{-1}}).
    """
    alg, grp = pa.algebra, pa.group
    d, n = alg.dim, grp.order
    results = []

    bad = []
    for g in range(n):
        for i in range(d):
            gi = pa.dot_vec(g, alg.basis_element(i).coeffs)
            for j in range(d):
                lhs = pa.dot_vec(g, alg.basis_product(i, j))
                rhs = alg.mul_vec(gi, pa.dot_vec(g, alg.basis_element(j).coeffs))
                if lhs != rhs:
                    bad.append(f"g={grp.label(g)} on ({alg.labels[i]}, {alg.labels[j]})")
    results.append(check("lemma1.multiplicative", not bad, {"pairs": n * d * d},
                         bad[:3]))

    bad = []
    for g in range(n):
        for h in range(n):
            gh = grp.mul(g, h)
            for i in range(d):
                a = alg.basis_element(i).coeffs
                lhs = pa.dot_vec(g, pa.dot_vec(h, a))
                rhs = alg.mul_vec(pa.dot_vec(gh, a), pa.idempotents[g])
                if lhs != rhs:
                    bad.append(f"g={grp.label(g)} h={grp.label(h)} a={alg.labels[i]}")
    results.append(check("lemma1.composition", not bad, {"triples": n * n * d},
                         bad[:3]))

    bad = []
    for g in range(n):
        ginv = grp.inv(g)
        for i in range(d):
            ga = pa.dot_vec(g, alg.basis_element(i).coeffs)
            for j in range(d):
                b = alg.basis_element(j).coeffs
                lhs = alg.mul_vec(ga, b)
                rhs = pa.dot_vec(g, alg.mul_vec(
                    alg.basis_element(i).coeffs, pa.dot_vec(ginv, b)))
                if lhs != rhs:
                    bad.append(f"g={grp.label(g)} on ({alg.labels[i]}, {alg.labels[j]})")
    results.append(check("lemma1.pull_through", not bad, {"pairs": n * d * d},
                         bad[:3]))

    bad = [grp.label(g) for g in range(n)
           if pa.dot_vec(g, alg.unit) != pa.idempotents[g]]
    results.append(check("lemma1.unit_image", not bad, {"elements": n}, bad))

    bad = []
    for g in range(n):
        ginv = grp.inv(g)
        for i in range(d):
            a = alg.basis_element(i).coeffs
            lhs = pa.dot_vec(g, pa.dot_vec(ginv, a))
            rhs = alg.mul_vec(a, pa.idempotents[g])
            if lhs != rhs:
                bad.append(f"g={grp.label(g)} a={alg.labels[i]}")
    results.append(check("lemma1.round_trip", not bad, {"pairs": n * d}, bad[:3]))

    # kernel of the g-map: the evaluation kills exactly A(1-1_{g^{-1}}),
    # the complement of its source ideal.  Whether the complement of the
    # target ideal A(1-1_g) happens to agree (it does whenever
    # 1_g = 1_{g^{-1}}) is recorded but not required.
    bad = []
    dims = []
    target_variant = True
    for g in range(n):
        ker = kernel_basis(pa.maps[g])
        comp = pa.complement_ideal(grp.inv(g))
        dims.append(ker.dim)
        if ker != comp:
            bad.append(f"g={grp.label(g)}: kernel dim {ker.dim} vs ideal dim {comp.dim}")
        if ker != pa.complement_ideal(g):
            target_variant = False
    results.append(check("lemma1.kernel_ideal", not bad,
                         {"kernel_dims": dims,
                          "target_idempotent_variant": target_variant}, bad))
    return results


# -- builders ------------------------------------------------------------

def global_action(group, algebra, automorphism_mats):
    """A global action: every idempotent is the unit, every map an automorphism."""
    idempotents = [algebra.unit] * group.order
    return make_partial_action(group, algebra, idempotents, list(automorphism_mats))


def trivial_from_split(left, right, group):
    """The split partial action on left×right: off the identity, every ideal
    is the left factor and every map is the projection onto it."""
    prod = direct_product(left, right)
    field = prod.field
    dl = left.dim
    proj = Mat(field, [[field.one if (i == j and i < dl) else field.zero
                        for j in range(prod.dim)] for i in range(prod.dim)])
    ident = Mat.identity(field, prod.dim)
    left_unit = list(left.unit) + [field.zero] * right.dim

    idempotents, maps = [], []
    for g in range(group.order):
        if g == group.identity:
            idempotents.append(prod.unit)
            maps.append(ident)
        else:
            idempotents.append(tuple(left_unit))
            maps.append(proj)
    return make_partial_action(group, prod, idempotents, maps)


def restrict_global(pa, e):
    """Restrict a global action on B to the unital ideal A = B·e.

    e must be a central idempotent of the acted-on algebra; the restricted
    idempotents are e·σ_g(e) and the restricted maps are
    (multiply by e) ∘ σ_g, re-expressed on the ideal's own basis.
    """
    if not pa.is_global():
        raise ValidationError("restriction expects a global action")
    parent = pa.algebra
    if not is_central_idempotent(e):
        raise NotCentralIdempotent(parent.format_vec(e.coeffs))
    span = ideal_basis(parent, e)
    sub, include = subalgebra(parent, span, e.coeffs)

    idempotents, maps = [], []
    for g in range(pa.group.order):
        sig_e = pa.dot_vec(g, e.coeffs)
        one_g = parent.mul_vec(e.coeffs, sig_e)
        coords = span.coordinates_of(one_g)
        if coords is None:
            raise ValidationError("restricted idempotent left the ideal")
        idempotents.append(coords)
        cols = []
        for v in span.basis:
            w = parent.mul_vec(e.coeffs, pa.dot_vec(g, v))
            wc = span.coordinates_of(w)
            if wc is None:
                raise ValidationError("restricted map left the ideal")
            cols.append(wc)
        maps.append(Mat.from_columns(sub.field, cols, rows=sub.dim))
    return make_partial_action(pa.group, sub, idempotents, maps)
