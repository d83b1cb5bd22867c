"""Partial actions of a finite group on a structure algebra.

A partial action assigns to each group element g a central idempotent 1_g
(cutting out the ideal D_g = A·1_g) and a total endomorphism α_g of A that
kills A·(1 - 1_{g^{-1}}) and restricts to an algebra isomorphism
D_{g^{-1}} -> D_g.  ``make_partial_action`` checks, exhaustively over the
group and the basis:

  * every 1_g is a central idempotent, 1_e = 1 and the e-map is the identity;
  * each map vanishes off its source ideal and is a multiplicative bijection
    between the prescribed ideals;
  * the image of D_{g^{-1}} ∩ D_h is exactly D_g ∩ D_{gh} (as subspaces);
  * composing the g- and h-maps agrees with the gh-map on the overlap ideal.

An action is stored once, as the sparse columns ``columns[g][j] =
{row: scalar}`` = α_g(b_j): g·a, the axioms, the Lemma 1 identities of
:mod:`lemma1`, the kernel of α_g and the Hopf lift read them, and each
idempotent 1_g is a sparse vector ``{index: scalar}``.
``make_partial_action`` reads both through the column check of
:mod:`algebras`; the builders below make them in that form.  Each distinct
1_g is proved central once, by the test whose multiples span D_g.  Then no
elimination meets two ideals: for central idempotents D_a ∩ D_b =
A·1_a1_b, and once α_g is proved a multiplicative bijection D_{g⁻¹} -> D_g
that kills A·(1 - 1_{g⁻¹}), Axiom II at (g, h) is α_g(1_{g⁻¹}1_h) =
1_g1_{gh} (Dokuchaev–Exel 2005).  Past Axiom I nothing is checked where g
or h is e: Axiom I, and the isomorphism at g, imply it.  Multiplicativity
on the source ideal sums lhs − rhs in one accumulator per source basis
vector u, keyed inner·d + t, and is reduced once; its smallest failing key
is the failure of a per-pair loop.  The table A·(1 - 1_g) is
``StructureAlgebra.multiples``.  The report on the Lemma 1 identities is
:mod:`lemma1`, which only the ``lemma1`` suite loads.
"""

from __future__ import annotations

from .algebras import (_add, _central_multiples, _image, _lincomb, _residues,
                       _sparse_columns, _sparse_vector, direct_product,
                       ideal_basis, subalgebra)
from .errors import (AxiomIFails, AxiomIIFails, AxiomIIIFails,
                     NotCentralIdempotent, NotIsoOnIdeal, ValidationError)
from .linalg import Subspace


class PartialAction:
    """Validated partial action; construct through make_partial_action."""

    __slots__ = ("group", "algebra", "idempotents", "columns", "ideals")

    def __init__(self, group, algebra, idempotents, columns, ideals):
        self.group = group
        self.algebra = algebra
        self.idempotents = tuple(idempotents)   # 1_g as {index: scalar}, one per g
        self.columns = tuple(columns)           # α_g(b_j) as {row: scalar}
        self.ideals = tuple(ideals)             # D_g as canonical subspaces

    def is_global(self):
        return all(e == self.algebra.unit for e in self.idempotents)

    def complement_ideal(self, g):
        """The ideal A·(1 - 1_g)."""
        alg = self.algebra
        comp = _complement(alg, self.idempotents[g])
        return Subspace.span(alg.field, alg.dim, alg.multiples(comp, left=False).values())


def _complement(algebra, e):
    """1 - e, sparse."""
    return _lincomb(algebra.field, ((1, algebra.unit), (-1, e)))


def make_partial_action(group, algebra, idempotents, maps):
    """Validate the data of a partial action; raises named axiom failures.

    ``idempotents[g]`` is 1_g as a sparse vector ``{index: scalar}`` and
    ``maps[g]`` is α_g as its sparse columns, ``maps[g][j]`` = α_g(b_j) as
    ``{row: scalar}``; both are read in the algebra's field (ValueError for
    a malformed one, see ``algebras._sparse_columns``)."""
    n, d, field = group.order, algebra.dim, algebra.field
    idempotents, maps = list(idempotents), list(maps)
    if len(idempotents) != n or len(maps) != n:
        raise ValidationError("need one idempotent and one map per group element")
    return _checked_action(group, algebra,
                           [_sparse_vector(algebra, e, "idempotent") for e in idempotents],
                           [_sparse_columns(field, cols, d, d) for cols in maps])


def _checked_action(group, algebra, idempotents, columns):
    """The partial action with canonical sparse idempotents and columns
    ``columns[g][j]`` = α_g(b_j), once every axiom holds.  Axiom II reads
    α_g(1_{g⁻¹}1_h) only after the isomorphism check at g: α_g then maps the
    central idempotents of D_{g⁻¹} one to one onto those of D_g, and a
    central idempotent x is the only one whose ideal is A·x."""
    n, d, field = group.order, algebra.dim, algebra.field
    mul = algebra.mul
    spans = {}      # A·x for each central idempotent x met, keyed by its items

    def ideal(x, g=None):
        """A·x; x = 1_g is proved central first, a product 1_a·1_b needs no proof."""
        key = frozenset(x.items())
        if key not in spans:
            left = algebra.multiples(x) if g is None else _central_multiples(algebra, x)
            if left is None:
                raise NotCentralIdempotent(f"g={group.label(g)}: {algebra.format_vec(x)}")
            spans[key] = Subspace.span(field, d, left.values())
        return spans[key]

    ideals = [ideal(x, g) for g, x in enumerate(idempotents)]

    e = group.identity
    if idempotents[e] != algebra.unit:
        raise AxiomIFails("idempotent at the identity is not the unit")
    if columns[e] != [{i: 1} for i in range(d)]:
        raise AxiomIFails("map at the identity is not the identity map")

    first, meets = {}, {}   # rep[g]: the first element whose idempotent is 1_g
    rep = [first.setdefault(frozenset(x.items()), g) for g, x in enumerate(idempotents)]

    def meet(a, b):
        """(1_a·1_b, D_a ∩ D_b), formed once per pair of distinct idempotents."""
        key = rep[a], rep[b]
        if key not in meets:
            x = mul(idempotents[a], idempotents[b])
            meets[key] = x, ideal(x)
        return meets[key]

    others = [g for g in range(n) if g != e]
    for g in others:
        _check_iso_on_ideal(group, algebra, idempotents, columns, ideals, g)

    for g in others:
        for h in others:
            source, domain = meet(group.inv(g), h)
            target, span = meet(g, group.mul(g, h))
            if field.sparse(_image(columns[g], source.items())) != target:
                raise AxiomIIFails(group.label(g), group.label(h),
                                   f"image dim {domain.dim}, target dim {span.dim}")

    for g in others:
        for h in others:
            gh = group.mul(g, h)
            for idx, v in enumerate(meet(group.inv(h), group.inv(gh))[1].basis):
                acc = _image(columns[g], _image(columns[h], v.items()).items())
                if field.sparse(_image(columns[gh], v.items(), acc, c=-1)):
                    raise AxiomIIIFails(group.label(g), group.label(h), idx)

    return PartialAction(group, algebra, idempotents, columns, ideals)


def _check_iso_on_ideal(group, algebra, idempotents, columns, ideals, g):
    field, d, cols = algebra.field, algebra.dim, columns[g]
    sparse, mul = field.sparse, algebra._mul_acc
    ginv = group.inv(g)
    source, target = ideals[ginv], ideals[g]
    comp = _complement(algebra, idempotents[ginv])
    # α_g(0) = 0, so the first failing b_i has a nonzero comp·b_i
    for i, v in sorted(algebra.multiples(comp, left=False).items()):
        if sparse(_image(cols, v.items())):
            raise NotIsoOnIdeal(
                group.label(g),
                f"does not vanish on the complement of its source ideal "
                f"(basis {algebra.labels[i]})")
    basis = source.basis
    images = [sparse(_image(cols, u.items())) for u in basis]
    image_span = Subspace.span(field, d, images)
    if image_span != target or image_span.dim != source.dim:
        raise NotIsoOnIdeal(
            group.label(g),
            f"image of source ideal has dim {image_span.dim}, "
            f"target ideal has dim {target.dim} (source dim {source.dim})")

    def fill(acc, pair):
        u, gu = pair
        for j, (v, gv) in enumerate(zip(basis, images)):
            _image(cols, mul(u, v).items(), acc, j * d)
            _add(acc, j * d, -1, mul(gu, gv).items())

    if any(_residues(field, zip(basis, images), fill, d)):
        raise NotIsoOnIdeal(group.label(g), "not multiplicative on its source ideal")


# -- builders ------------------------------------------------------------

def global_action(group, algebra, automorphisms):
    """A global action: every idempotent is the unit, every map an
    automorphism, given by its sparse columns."""
    idempotents = [algebra.unit] * group.order
    return make_partial_action(group, algebra, idempotents, automorphisms)


def trivial_from_split(left, right, group):
    """The split partial action on left×right: off the identity, every ideal
    is the left factor and every map is the projection onto it."""
    prod = direct_product(left, right)
    one = prod.field.one
    ident = [{j: one} for j in range(prod.dim)]
    proj = ident[:left.dim] + [{} for _ in range(right.dim)]
    left_unit = left.unit     # the left factor comes first in the product
    e = group.identity
    return _checked_action(
        group, prod, [prod.unit if g == e else left_unit for g in range(group.order)],
        [ident if g == e else proj for g in range(group.order)])


def restrict_global(pa, e):
    """Restrict a global action on B to the unital ideal A = B·e.

    e, a sparse vector, must be a nonzero central idempotent of the acted-on
    algebra; the restricted idempotents are e·σ_g(e) and the restricted
    maps are (multiply by e) ∘ σ_g, re-expressed on the ideal's own basis.
    """
    if not pa.is_global():
        raise ValidationError("restriction expects a global action")
    parent = pa.algebra
    x = _sparse_vector(parent, e, "idempotent")
    if not x:
        raise ValidationError("cannot restrict to the zero idempotent: "
                              "its ideal is the zero algebra")
    span = ideal_basis(parent, x)     # raises NotCentralIdempotent
    sub = subalgebra(parent, span, x)
    field = parent.field

    def restricted(cols, v):
        # the coordinates of e·σ_g(v) on the ideal's basis: e is central, so
        # e·y lies in B·e for every y
        return span.coordinates(field.sparse(parent._mul_acc(x, _image(cols, v.items()))))

    idempotents = [restricted(cols, x) for cols in pa.columns]
    columns = [[restricted(cols, v) for v in span.basis] for cols in pa.columns]
    return _checked_action(pa.group, sub, idempotents, columns)
