"""Smash product of the twisted group ring with the dual group algebra.

A basis vector is a pair (skew basis j, group element h), standing for
x#p_h with x the j-th homogeneous basis vector.  The ring structure is
assembled twice and compared: once generically by ``smash_algebra``, the
one smash builder of :mod:`algebras`, from the projection action
p_h ▷ x = [grade(x) = h]·x and the coproduct Δ(p_h) = Σ_{uv=h} p_u⊗p_v of
the dual group algebra, and once from the closed product rule that
multiplies the skew parts and keeps p_l exactly when the left p-index
matches grade(y)·l.  Any mismatch would mean a transcription error in one
of the two routes and aborts the build.  The projection action is a
module-algebra action because ``build_skew`` placed every cell of D_g·D_h
in D_gh, by the grades this action reads (``SkewGroupRing.grades``).  (A
grading planted against the table, as the tests do, leaves the generic
product not associative, and ``make_algebra`` refuses it at its first
triple.)  The build also proves that the twisted ring embeds, ι: x ↦
Σ_h x#p_h multiplicative, unital and with zero kernel; ``smash_report``
restates that proof, it does not repeat it.

Separability of B = R#k[G]* over the embedded twisted ring R is checked here
too, since it reads only B, R and ι:

  * the canonical separating element Σ_h (1#p_h)⊗(1#p_h) of B⊗B over R
    centralizes R and multiplies to the unit, compared in
    B⊗_R B ≅ B^{|G|}, since B is (verifiably) free over R on {1#p_h}.
"""

from __future__ import annotations

from .algebras import (AlgebraMap, _lincomb, _pure_tensor, dual_group_algebra,
                       smash_algebra)
from .errors import InternalCheckFailed
from .report import check


class SmashAlgebra:
    """The smash product of a twisted group ring with its dual group algebra
    and the embedding ι of the ring.  Construct it through ``build_smash``:
    the reports restate the proofs of that build."""

    __slots__ = ("algebra", "skew", "group", "embed_skew_map")

    def __init__(self, algebra, skew, embed_skew_map):
        self.algebra = algebra
        self.skew = skew
        self.group = skew.group
        self.embed_skew_map = embed_skew_map

    @property
    def dim(self):
        return self.algebra.dim

    def index(self, j, h):
        return j * self.group.order + h

    def parts(self, idx):
        return divmod(idx, self.group.order)

    def dual_units(self):
        """1#p_h for every h, sparse."""
        unit = self.skew.algebra.unit
        return [{self.index(j, h): c for j, c in unit.items()}
                for h in range(self.group.order)]

    def generators(self):
        """ι(b_j) for every basis vector b_j of the twisted ring, then 1#p_h
        for every h, sparse: they generate, since x#p_h = ι(x)(1#p_h)."""
        return list(self.embed_skew_map.columns) + self.dual_units()


def build_smash(skew):
    grp = skew.group
    field = skew.algebra.field
    n = grp.order
    ds = skew.dim
    one = field.one
    grades = skew.grades
    products = skew.algebra.products

    # generic route: Δ(p_h) = Σ_{uv=h} p_u⊗p_v and p_h ▷ y = [grade y = h]·y;
    # a module-algebra action, as build_skew placed each cell of D_g·D_h in D_gh
    dual = dual_group_algebra(field, grp)
    comul = [[(u, grp.mul(grp.inv(u), h), one) for u in range(n)] for h in range(n)]
    acted = [[{y: one} if grades[y] == h else {} for y in range(ds)]
             for h in range(n)]
    alg = smash_algebra(skew.algebra, dual, comul, acted,
                        _pure_tensor(field, skew.algebra.unit, dual.unit, n))

    # closed rule: (x#p_h)(y#p_l) = xy#p_l when h = grade(y)·l, else 0
    closed = tuple(
        {j2 * n + l: tuple((k * n + l, c) for k, c in cell)
         for j2, cell in products[j1].items() for l in range(n)
         if grp.mul(grades[j2], l) == h}
        for j1 in range(ds) for h in range(n))
    if alg.products != closed:
        raise InternalCheckFailed("generic and closed smash products disagree")

    embed = AlgebraMap(skew.algebra, alg, [
        {j * n + h: one for h in range(n)} for j in range(ds)])
    if not (embed.is_multiplicative() and embed.is_unital()
            and embed.kernel().is_zero()):
        raise InternalCheckFailed("twisted group ring does not embed in its smash product")

    return SmashAlgebra(alg, skew, embed)


def smash_report(smash):
    """Structural facts recorded for the report: the dimension, and the
    embedding of the twisted ring that ``build_smash`` proved, with the
    zero kernel that build measured."""
    return [
        check("smash.dimension",
              {"dim": smash.dim, "skew_dim": smash.skew.dim,
               "group_order": smash.group.order},
              None if smash.dim == smash.skew.dim * smash.group.order else
              f"smash dim {smash.dim} != skew dim {smash.skew.dim} * group order "
              f"{smash.group.order}"),
        check("smash.skew_embedding", {"kernel_dim": 0}),
    ]


# -- separability over the twisted ring ----------------------------------

def _verify_free_over_twisted_ring(smash):
    """ι(b_j)·(1#p_h) = b_j#p_h for every j and h: B is a free left R-module
    on {1#p_h}, so B⊗_R B ≅ B^{|G|}."""
    B = smash.algebra
    units = smash.dual_units()
    for j, a in enumerate(smash.embed_skew_map.columns):
        for h, u in enumerate(units):
            if B.mul(a, u) != {smash.index(j, h): B.field.one}:
                raise InternalCheckFailed(
                    f"smash is not free over the twisted ring at "
                    f"({smash.skew.algebra.labels[j]}, p_{smash.group.label(h)})")


def _tensor_image(smash, element):
    """Φ(Σ x⊗y) = (Σ x·ι(y_h))_h in B^{|G|}, for the element given as (x, y)
    pairs of sparse vectors of B, where y = Σ_h ι(y_h)·(1#p_h)."""
    B = smash.algebra
    n = smash.group.order
    iota = smash.embed_skew_map.columns
    slots = [[] for _ in range(n)]
    for x, y in element:
        blocks = [[] for _ in range(n)]
        for idx, c in y.items():
            j, h = smash.parts(idx)
            blocks[h].append((c, iota[j]))
        for h, terms in enumerate(blocks):
            if terms:
                slots[h].append((B.field.one, B.mul(x, _lincomb(B.field, terms))))
    return [_lincomb(B.field, terms) for terms in slots]


def _centrality_witness(smash, element):
    """First (label of a basis vector a of R, dual index label), a-major,
    where Φ(f·ι(a)) and Φ(ι(a)·f) differ for the tensor element f; None
    when f centralizes the embedded twisted ring."""
    mul = smash.algebra.mul
    for j, a in enumerate(smash.embed_skew_map.columns):
        fa = _tensor_image(smash, [(x, mul(y, a)) for x, y in element])
        af = _tensor_image(smash, [(mul(a, x), y) for x, y in element])
        for h in range(smash.group.order):
            if fa[h] != af[h]:
                return smash.skew.algebra.labels[j], smash.group.label(h)
    return None


def _separability_checks(smash, element):
    """Separability checks of a tensor element, naming first witnesses."""
    B = smash.algebra
    field = B.field
    central = _centrality_witness(smash, element)
    mu = _lincomb(field, ((field.one, B.mul(x, y)) for x, y in element))
    # the smallest index at which μ(f) and the unit differ
    split = min((k for k in mu.keys() | B.unit.keys()
                 if mu.get(k, field.zero) != B.unit.get(k, field.zero)), default=None)
    return [
        check("separability.centralizes",
              {"ambient_dim": B.dim * B.dim,
               "relation_dim": B.dim * B.dim - smash.group.order * B.dim},
              None if central is None else
              f"f*a != a*f for a = {central[0]} in component p_{central[1]}"),
        check("separability.splits_multiplication", {}, None if split is None else
              f"mu(f) differs from the unit at {B.labels[split]}"),
        check("separability.element_nonzero", {"tensor_terms": len(element)},
              None if any(_tensor_image(smash, element)) else
              "Phi(f) is zero in every p_h component"),
    ]


def separability_report(smash):
    """Σ_h (1#p_h)⊗(1#p_h) ∈ B⊗_R B centralizes R and multiplies to 1; the
    balancing relations of B⊗B, reported by dimension, are ker Φ."""
    _verify_free_over_twisted_ring(smash)
    return _separability_checks(smash, [(u, u) for u in smash.dual_units()])
