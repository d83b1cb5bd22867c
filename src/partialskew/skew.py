"""The twisted group ring of a partial action, as a graded structure algebra.

The carrier is the direct sum of the ideals D_g, and ``SkewGroupRing``
owns its layout: basis index j is the echelon row ``vectors[j]`` of D_g
placed at g = ``grades[j]``, the rows of D_g from index ``offsets[g]`` on.
``inject(g, a)`` reads a ∈ D_g off the pivots of D_g into these
coordinates (None outside D_g); every layer places its elements through
it.  The product of homogeneous elements is (a at g)·(b at h) = a(g·b)
placed at gh, extended bilinearly.  The whole thing is materialized as a
StructureAlgebra (with the full associativity/unit validation) so centers,
matrix algebras and the smash construction apply to it unchanged.

The build is sparse: g·v is read from the columns of α_g once per (g, v),
and each product u(g·v) is injected at gh, so no product makes a vector as
long as the ring.  Products of components are cells of the table.

``build_skew`` proves that every product of D_g and D_h lands in D_gh (a
cell that leaves it is refused) and that A embeds as the identity
component; ``grading_report`` states both as ``grading.components_multiply``
and ``grading.base_embedding``.
"""

from __future__ import annotations

from itertools import accumulate

from .algebras import AlgebraMap, _image, make_algebra
from .errors import InternalCheckFailed
from .linalg import Subspace
from .report import check


class SkewGroupRing:
    """The twisted group ring of a partial action in the layout above,
    built and fully validated by its constructor; call it through
    ``build_skew``, whose proofs the reports restate."""

    __slots__ = ("action", "group", "offsets", "grades", "vectors",
                 "components", "algebra")

    def __init__(self, pa):
        alg, grp = pa.algebra, pa.group
        field = alg.field
        sparse, mul = field.sparse, alg._mul_acc
        n = grp.order
        ideals = pa.ideals
        self.action, self.group = pa, grp
        *self.offsets, total = accumulate((ideal.dim for ideal in ideals), initial=0)
        self.grades = grades = tuple(g for g, ideal in enumerate(ideals) for _ in ideal.pivots)
        self.vectors = vectors = tuple(v for ideal in ideals for v in ideal.basis)
        # per g: D_g in skew coordinates, spanned by the unit vectors of grade g
        one = field.one
        self.components = [Subspace.span(field, total, [
            {j: one} for j, h in enumerate(grades) if h == g]) for g in range(n)]

        # g·v for every g and every basis vector v of every component, once
        moved = [[sparse(_image(pa.columns[g], v.items())) for v in vectors]
                 for g in range(n)]
        products = []
        for g, u in zip(grades, vectors):
            row = {}
            for y, h in enumerate(grades):
                cell = self.inject(grp.mul(g, h), sparse(mul(u, moved[g][y])))
                if cell is None:
                    raise InternalCheckFailed(
                        "twisted product left its target graded component")
                if cell:
                    row[y] = cell.items()
            products.append(row)

        # D_e = A, as make_partial_action proved 1_e = 1
        e = grp.identity
        labels = [f"{alg.format_vec(v)} at {grp.label(g)}" for g, v in zip(grades, vectors)]
        self.algebra = make_algebra(field, products, self.inject(e, alg.unit), labels=labels)
        embed = AlgebraMap(alg, self.algebra,
                           [self.inject(e, {i: one}) for i in range(alg.dim)])
        if not (embed.is_multiplicative() and embed.is_unital()
                and embed.kernel().is_zero()):
            raise InternalCheckFailed("base algebra does not embed as the identity component")

    @property
    def dim(self):
        return self.algebra.dim

    def inject(self, g, a):
        """a ∈ D_g placed at g: its coefficients on the echelon rows of D_g,
        read off the pivots of D_g, at the indices from ``offsets[g]`` on;
        None when a lies outside D_g."""
        coords = self.action.ideals[g].coordinates(a)
        if coords is None:
            return None
        base = self.offsets[g]
        return {base + t: c for t, c in coords.items()}


def build_skew(pa):
    """Assemble and fully validate the twisted group ring of a partial action."""
    return SkewGroupRing(pa)


def component_product_span(skew, g, h):
    """Span of all products of g-component and h-component basis vectors:
    each component is spanned by the unit vectors at its pivots, so the
    products are cells of the product table."""
    products = skew.algebra.products
    return Subspace.span(skew.algebra.field, skew.dim, [
        dict(products[x].get(y, ())) for x in skew.components[g].pivots
        for y in skew.components[h].pivots])


def grading_report(skew):
    """Checks that the components sum directly to the ring, and restates
    two proofs of ``build_skew``: every product cell of D_g·D_h is read off
    the pivots of D_gh (else "twisted product left its target graded
    component"), so the components multiply as the group does; and the
    base algebra embeds as the identity component."""
    grp = skew.group
    n = grp.order
    results = [check("grading.components_multiply", {"pairs": n * n})]

    total = skew.components[0]
    overlap = []
    for g in range(1, n):
        # D_g meets the sum before it iff the dimensions do not add up
        grown = total + skew.components[g]
        if grown.dim < total.dim + skew.components[g].dim:
            overlap.append(grp.label(g))
        total = grown
    uncovered = None
    if not overlap and total.dim < skew.dim:
        # the sum is direct but short: name the first label it misses
        one = skew.algebra.field.one
        b = next(b for b in range(skew.dim) if {b: one} not in total)
        uncovered = f"{skew.algebra.labels[b]} lies outside the sum of the components"
    results.append(check("grading.direct_sum",
                         {"total_dim": total.dim, "dim": skew.dim}, *overlap, uncovered))

    results.append(check("grading.base_embedding",
                         {"base_dim": skew.action.algebra.dim}))
    return results


def strong_grading_test(skew):
    """Strong grading (component products exhaust the target component)
    versus globality of the action; the two must agree.  ``pair`` is the
    first (g, h) whose product R_g·R_h misses R_gh, or None when the
    grading is strong."""
    grp = skew.group
    n = grp.order
    pair = next(((g, h) for g in range(n) for h in range(n)
                 if component_product_span(skew, g, h) != skew.components[grp.mul(g, h)]),
                None)
    strong = pair is None
    is_global = skew.action.is_global()
    return {"strong": strong, "global": is_global, "agree": strong == is_global,
            "pair": pair}
