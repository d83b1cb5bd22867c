"""The twisted group ring of a partial action, as a graded structure algebra.

The carrier is the direct sum of the ideals D_g; a basis vector is a pair
(g, i) where i indexes the canonical echelon basis of D_g.  The product of
homogeneous elements is (a at g)·(b at h) = a(g·b) placed at gh, extended
bilinearly.  The whole thing is materialized as a StructureAlgebra (with the
full associativity/unit validation) so centers, matrix algebras and the
smash construction apply to it unchanged.

The build is sparse: the component bases are the echelon rows of the D_g,
g·v is read from the columns of α_g once per (g, v), and the cell of each
product u(g·v) is read off the pivots of D_gh, so no product makes a vector
as long as the ring.  Products of components are cells of the table.

``build_skew`` proves that every product of D_g and D_h lands in D_gh (a
cell that leaves it is refused) and that A embeds as the identity
component; ``grading_report`` states both as ``grading.components_multiply``
and ``grading.base_embedding``.
"""

from __future__ import annotations

from itertools import accumulate

from .actions import _image
from .algebras import AlgebraMap, make_algebra
from .errors import InternalCheckFailed
from .linalg import Subspace
from .report import check


class SkewGroupRing:
    """The twisted group ring of a partial action, its graded components and
    the embedding of the base algebra as the identity component.  Construct
    it through ``build_skew``: the reports restate the proofs of that build."""

    __slots__ = ("algebra", "action", "group", "component_bases", "offsets",
                 "components", "embed_base")

    def __init__(self, algebra, action, component_bases, offsets, components,
                 embed_base):
        self.algebra = algebra
        self.action = action
        self.group = action.group
        self.component_bases = component_bases  # per g: echelon rows of D_g, sparse
        self.offsets = offsets
        self.components = components            # per g: Subspace in skew coordinates
        self.embed_base = embed_base            # A -> skew, a |-> a at the identity

    @property
    def dim(self):
        return self.algebra.dim

    def grade_of(self, index):
        """(g, position) of a basis index."""
        for g in range(self.group.order - 1, -1, -1):
            if index >= self.offsets[g]:
                return g, index - self.offsets[g]
        raise IndexError(index)


def build_skew(pa):
    """Assemble and fully validate the twisted group ring of a partial action."""
    alg, grp = pa.algebra, pa.group
    field = alg.field
    sparse, mul = field.sparse, alg._mul_acc
    n = grp.order

    component_bases = [tuple(pa.ideals[g]._rows.values()) for g in range(n)]
    *offsets, total = accumulate(map(len, component_bases), initial=0)

    tags = [(g, i) for g in range(n) for i in range(len(component_bases[g]))]
    labels = [f"{alg.format_vec(component_bases[g][i])} at {grp.label(g)}"
              for g, i in tags]

    def cell_at(g, avec):   # the skew coordinates of avec at g, a sorted cell
        coords = pa.ideals[g].sparse_coordinates(avec)
        if coords is None:
            raise InternalCheckFailed(
                "twisted product left its target graded component")
        return [(offsets[g] + t, c) for t, c in coords.items()]

    # g·v for every g and every basis vector v of every component, once
    basis = [component_bases[h][i] for h, i in tags]
    moved = [[sparse(_image(pa.columns[g], v.items())) for v in basis]
             for g in range(n)]
    products = []
    for (g, _), u in zip(tags, basis):
        row = {}
        for y, (h, _) in enumerate(tags):
            cell = cell_at(grp.mul(g, h), sparse(mul(u, moved[g][y])))
            if cell:
                row[y] = cell
        products.append(row)

    e = grp.identity
    unit = dict(cell_at(e, alg.unit))
    skew_alg = make_algebra(field, products, unit, labels=labels)

    one = field.one
    components = [Subspace.from_sparse(field, total, [
        {offsets[g] + i: one} for i in range(len(component_bases[g]))])
        for g in range(n)]

    embed = AlgebraMap(alg, skew_alg, [dict(cell_at(e, {i: one}))
                                       for i in range(alg.dim)])
    if not (embed.is_multiplicative() and embed.is_unital()
            and embed.kernel().is_zero()):
        raise InternalCheckFailed("base algebra does not embed as the identity component")

    return SkewGroupRing(skew_alg, pa, component_bases, offsets, components, embed)


def component_product_span(skew, g, h):
    """Span of all products of g-component and h-component basis vectors:
    each component is spanned by the unit vectors at its pivots, so the
    products are cells of the product table."""
    products = skew.algebra.products
    return Subspace.from_sparse(skew.algebra.field, skew.dim, [
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
    results = [check("grading.components_multiply", True, {"pairs": n * n})]

    total = skew.components[0]
    overlap = []
    for g in range(1, n):
        inter = total.intersect(skew.components[g])
        if not inter.is_zero():
            overlap.append(grp.label(g))
        total = total + skew.components[g]
    direct = not overlap and total.dim == skew.dim
    results.append(check("grading.direct_sum", direct,
                         {"total_dim": total.dim, "dim": skew.dim}, overlap))

    results.append(check("grading.base_embedding", True,
                         {"base_dim": skew.action.algebra.dim}))
    return results


def strong_grading_test(skew):
    """Strong grading (component products exhaust the target component)
    versus globality of the action; the two must agree."""
    grp = skew.group
    strong = True
    for g in range(grp.order):
        for h in range(grp.order):
            if component_product_span(skew, g, h) != skew.components[grp.mul(g, h)]:
                strong = False
                break
        if not strong:
            break
    is_global = skew.action.is_global()
    return {"strong": strong, "global": is_global, "agree": strong == is_global}
