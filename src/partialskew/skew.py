"""The twisted group ring of a partial action, as a graded structure algebra.

The carrier is the direct sum of the ideals D_g; a basis vector is a pair
(g, i) where i indexes the canonical echelon basis of D_g.  The product of
homogeneous elements is (a at g)·(b at h) = a(g·b) placed at gh, extended
bilinearly.  The whole thing is materialized as a StructureAlgebra (with the
full associativity/unit validation) so centers, matrix algebras and the
smash construction apply to it unchanged.
"""

from __future__ import annotations

from .algebras import AlgebraMap, make_algebra
from .errors import InternalCheckFailed
from .linalg import Subspace, _sparse, vzero
from .report import check


class SkewGroupRing:
    __slots__ = ("algebra", "action", "group", "component_bases", "offsets",
                 "components", "embed_base")

    def __init__(self, algebra, action, component_bases, offsets, components,
                 embed_base):
        self.algebra = algebra
        self.action = action
        self.group = action.group
        self.component_bases = component_bases  # per g: tuple of A-coordinate vectors
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

    def inject(self, g, avec):
        """Skew coefficients of the element avec (in A coordinates) placed at g."""
        coords = self.action.ideals[g].coordinates_of(avec)
        if coords is None:
            raise ValueError("element does not lie in the ideal of that grade")
        out = list(vzero(self.algebra.field, self.dim))
        for i, c in enumerate(coords):
            out[self.offsets[g] + i] = c
        return tuple(out)

    def project(self, coeffs, g):
        """A-coordinates of the g-component of a skew coefficient vector."""
        base = self.component_bases[g]
        out = [0] * self.action.algebra.dim
        for i, v in enumerate(base):
            c = coeffs[self.offsets[g] + i]
            if c:
                for t, x in enumerate(v):
                    out[t] += c * x
        return self.algebra.field.vector(out)


def build_skew(pa):
    """Assemble and fully validate the twisted group ring of a partial action."""
    alg, grp = pa.algebra, pa.group
    field = alg.field
    n = grp.order

    component_bases = [tuple(pa.ideals[g].basis) for g in range(n)]
    offsets, total = [], 0
    for g in range(n):
        offsets.append(total)
        total += len(component_bases[g])

    tags = [(g, i) for g in range(n) for i in range(len(component_bases[g]))]
    labels = [f"{alg.format_vec(component_bases[g][i])} at {grp.label(g)}"
              for g, i in tags]

    def coords_at(g, avec):
        coords = pa.ideals[g].coordinates_of(avec)
        if coords is None:
            raise InternalCheckFailed(
                "twisted product left its target graded component")
        out = [field.zero] * total
        for i, c in enumerate(coords):
            out[offsets[g] + i] = c
        return out

    products = []
    for g, i in tags:
        u = component_bases[g][i]
        row = {}
        for y, (h, j) in enumerate(tags):
            v = component_bases[h][j]
            w = alg.mul_vec(u, pa.dot_vec(g, v))
            cell = [(k, c) for k, c in enumerate(coords_at(grp.mul(g, h), w)) if c]
            if cell:
                row[y] = cell
        products.append(row)

    unit = coords_at(grp.identity, alg.unit)
    skew_alg = make_algebra(field, products, unit, labels=labels)

    components = []
    for g in range(n):
        vectors = []
        for i in range(len(component_bases[g])):
            v = [field.zero] * total
            v[offsets[g] + i] = field.one
            vectors.append(tuple(v))
        components.append(Subspace.from_vectors(field, total, vectors))

    embed = AlgebraMap(alg, skew_alg, [
        _sparse(coords_at(grp.identity, alg.basis_element(i).coeffs))
        for i in range(alg.dim)])
    if not (embed.is_multiplicative() and embed.is_unital() and embed.is_injective()):
        raise InternalCheckFailed("base algebra does not embed as the identity component")

    return SkewGroupRing(skew_alg, pa, component_bases, offsets, components, embed)


def component_product_span(skew, g, h):
    """Span of all products of g-component and h-component basis vectors."""
    alg = skew.algebra
    prods = []
    for u in skew.components[g].basis:
        for v in skew.components[h].basis:
            prods.append(alg.mul_vec(u, v))
    return Subspace.from_vectors(alg.field, skew.dim, prods)


def grading_report(skew):
    """Checks that the components really grade the ring over the group."""
    grp = skew.group
    n = grp.order
    results = []

    bad = []
    for g in range(n):
        for h in range(n):
            span = component_product_span(skew, g, h)
            if not skew.components[grp.mul(g, h)].contains(span):
                bad.append(f"({grp.label(g)},{grp.label(h)})")
    results.append(check("grading.components_multiply", not bad,
                         {"pairs": n * n}, bad))

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

    emb = skew.embed_base
    results.append(check(
        "grading.base_embedding",
        emb.is_multiplicative() and emb.is_unital() and emb.is_injective(),
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
