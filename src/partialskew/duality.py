"""The matrix picture of the smash product and its exact verification.

The smash product maps into square matrices over the base algebra, indexed
by the group: a homogeneous generator a#p_h of grade g goes to
h^{-1}·(g^{-1}·a) placed in row gh, column h.  Everything the theory
promises about this map is re-proved here per instance, by linear algebra:

  * the map is multiplicative and sends the unit to the corner idempotent
    (the diagonal matrix of the idempotents of the inverses), proved by
    ``build_duality`` and restated by ``corner_report``; its kernel is then
    a two-sided ideal, which ``decomposition_report`` states.  On the basis
    pair (a#p_{hk}, b#p_k), a of grade g and b of grade h, multiplicativity
    is the entry identity at (ghk, k):
    k^{-1}·((gh)^{-1}·(a(g·b))) = ((hk)^{-1}·(g^{-1}·a))(k^{-1}·(h^{-1}·b)),
    every other pair and entry reading 0 = 0; so the exhaustive check of φ
    on every basis pair proves the identity on every group triple;
  * its kernel equals the explicit block formula (two independent routes);
  * its image equals both the entrywise-constrained subspace and the Pierce
    corner cut out by the corner idempotent (three independent routes);
  * the smash product splits as (kernel) × (complementary ideal), with the
    map restricting to a bijection from the ideal onto the corner;
  * the twisted ring embeds, for the blockwise reason A(1-1_g)1_g = 0,
    which holds as ``make_partial_action`` proved every 1_g idempotent.

Separability of the smash over the twisted ring reads neither the map nor
the matrix algebra, and is checked in :mod:`smash`.  Only the ``duality``
suite loads this module.

The checks work on sparse vectors and cost their nonzero product terms;
no product makes a vector as long as the smash or matrix algebra.  The
block subspaces, the entrywise image, the Pierce corner and the ideal's
two-sided test read the products of an element with every basis vector
from ``StructureAlgebra.multiples``; the left multiples of the
complementary ideal's echelon rows are formed once, for the two-sided test
and the Kronecker tally.  The tally's predictions b_j·x, for an ideal row
x#p_h, are read off the twisted ring's own table, whose cells
``build_skew`` formed and placed in their graded components; it visits
only the j where a prediction or a true product is nonzero.  The cross
products of ideal and kernel keep one accumulator per ideal row.  The
corner idempotent, the map φ and its composite with the embedding of the
twisted ring are formed from sparse products and columns, an element of
D_g placed by ``skew.inject``.
"""

from __future__ import annotations

from .actions import _complement
from .algebras import AlgebraMap, _add, _apply, _image, _residues
from .constructions import _pierce_corner, matrix_algebra
from .errors import InternalCheckFailed
from .linalg import Subspace
from .report import check


class DualityData:
    __slots__ = ("smash", "mat", "phi", "corner_idempotent", "kernel", "image",
                 "ideal")

    def __init__(self, smash, mat, phi, corner_idempotent, kernel, image, ideal):
        self.smash = smash
        self.mat = mat
        self.phi = phi
        self.corner_idempotent = corner_idempotent
        self.kernel = kernel
        self.image = image
        self.ideal = ideal


def _block_subspace(smash, complement):
    """Span of {b_i·x_{gh}·1_g placed at grade g with dual index h}, x the
    complement 1 - 1_{gh} or the idempotent 1_{gh}; each nonzero generator
    is placed at g by ``SkewGroupRing.inject``."""
    skew = smash.skew
    pa = skew.action
    alg, grp = pa.algebra, pa.group
    es = pa.idempotents
    vectors = []
    for g in range(grp.order):
        for h in range(grp.order):
            x = es[grp.mul(g, h)]
            m = alg.mul(_complement(alg, x) if complement else x, es[g])
            for v in alg.multiples(m).values():
                placed = skew.inject(g, v)
                if placed is None:
                    raise InternalCheckFailed("block generator left its ideal")
                vectors.append({smash.index(j, h): c for j, c in placed.items()})
    return Subspace.span(alg.field, smash.dim, vectors)


def kernel_formula_subspace(smash):
    """Blockwise kernel formula: A(1-1_{gh})1_g in grade g, dual index h."""
    return _block_subspace(smash, complement=True)


def complement_ideal_subspace(smash):
    """Blockwise complement: A·1_{gh}·1_g in grade g, dual index h."""
    return _block_subspace(smash, complement=False)


def build_duality(smash):
    """Assemble the matrix map, verify it is a homomorphism sending 1 to the
    corner idempotent e (so e·e = e), and compute the kernel, image and
    complementary ideal.  A map that is not multiplicative is refused at the
    first basis pair, named by its smash labels."""
    skew = smash.skew
    pa = skew.action
    alg, grp = pa.algebra, pa.group
    n = grp.order
    mat = matrix_algebra(alg, grp)

    # column of a#p_h: h^{-1}·(g^{-1}·a) in entry (gh, h), a of grade g
    cols = []
    for g, a in zip(skew.grades, skew.vectors):
        ginv_a = _apply(alg.field, pa.columns[grp.inv(g)], a)
        cols += [_image(pa.columns[grp.inv(h)], ginv_a.items(),
                        base=mat.slot(grp.mul(g, h), h, 0)) for h in range(n)]
    phi = AlgebraMap(smash.algebra, mat, cols)

    pair = phi._multiplicativity_witness()
    if pair is not None:
        labels = smash.algebra.labels
        raise InternalCheckFailed(f"matrix map is not multiplicative at "
                                  f"({labels[pair[0]]}, {labels[pair[1]]})")

    # φ(1) = e with φ multiplicative gives e·e = φ(1·1) = e
    es = pa.idempotents
    bold_e = {mat.slot(g, g, t): x for g in range(n) for t, x in es[grp.inv(g)].items()}
    if phi.apply(smash.algebra.unit) != bold_e:
        raise InternalCheckFailed("unit does not map to the corner idempotent")

    return DualityData(smash, mat, phi, bold_e,
                       phi.kernel(), phi.image(), complement_ideal_subspace(smash))


# -- report-producing checks ---------------------------------------------

def kernel_report(d):
    formula = kernel_formula_subspace(d.smash)
    return [check("duality.kernel_formula",
                  {"kernel_dim": d.kernel.dim, "formula_dim": formula.dim},
                  None if formula == d.kernel else
                  "kernel of the matrix map differs from the block formula")]


def corner_report(d):
    """The image against the entrywise and Pierce corner routes, and the
    corner idempotent e: ``build_duality`` proved φ multiplicative and
    φ(1) = e, so e·e = φ(1·1) = e."""
    pa, mat = d.smash.skew.action, d.mat
    entrywise = _entrywise_image(pa, mat)
    pierce = _pierce_corner(mat, d.corner_idempotent)
    return [
        check("duality.image_entrywise",
              {"image_dim": d.image.dim, "entrywise_dim": entrywise.dim},
              _route_witness(mat, d.image, entrywise, "entrywise")),
        check("duality.image_pierce",
              {"image_dim": d.image.dim, "pierce_dim": pierce.dim},
              _route_witness(mat, d.image, pierce, "pierce")),
        check("duality.corner_idempotent", {"matrix_dim": mat.dim}),
    ]


def _route_witness(mat, image, route, route_name):
    """None when φ's image equals the span ``route``; else the first
    echelon row of the image outside the route, else the first one of the
    route outside the image."""
    if image == route:
        return None
    row = next((v for v in image.basis if v not in route), None)
    if row is not None:
        return f"image row {mat.format_vec(row)} lies outside the {route_name} span"
    row = next(v for v in route.basis if v not in image)
    return f"{route_name} row {mat.format_vec(row)} lies outside the image"


def _entrywise_image(pa, mat):
    """The span of b_i·1_{r⁻¹}1_{s⁻¹} placed in entry (r, s), over every
    (r, s, i).  The products b_i·m are formed once per distinct
    m = 1_{r⁻¹}1_{s⁻¹}, in one walk over the columns m reaches."""
    alg, grp = pa.algebra, pa.group
    es = pa.idempotents
    left = {}   # m, as its sorted items -> {i: b_i·m}
    vectors = []
    for r in range(grp.order):
        for s in range(grp.order):
            m = alg.mul(es[grp.inv(r)], es[grp.inv(s)])
            key = tuple(sorted(m.items()))
            products = left.get(key)
            if products is None:
                products = left[key] = alg.multiples(m)
            base = mat.slot(r, s, 0)
            vectors += [{base + t: x for t, x in v.items()} for v in products.values()]
    return Subspace.span(alg.field, mat.dim, vectors)


def _is_two_sided_ideal(algebra, subspace, left):
    """None when b·r and r·b lie in the subspace for every basis element b
    and echelon row r; else the witness of the first failure, b-major and
    left before right.

    b·r is read from ``left``, the left multiples ``algebra.multiples(r)``
    of each echelon row r in order; r·b is formed per row r for every b at
    once.  Only nonzero products are reduced against the subspace, and none
    that would come after a failure already found."""
    first = None   # (b, row index, 0 for left or 1 for right)
    for t, r in enumerate(subspace.basis):
        for side, products in enumerate((left[t], algebra.multiples(r, left=False))):
            for b, prod in products.items():
                if (first is None or (b, t, side) < first) and prod not in subspace:
                    first = (b, t, side)
    if first is None:
        return None
    b, _, side = first
    return f"{('left', 'right')[side]} multiple of {algebra.labels[b]} escapes"


def _cross_product_witness(algebra, ideal, kernel):
    """The first nonzero product of an ideal and a kernel basis vector,
    ideal·kernel before kernel·ideal, as a witness; None when there is none.

    For each ideal row v one accumulator, keyed (2j + side)·D + t (D the
    dimension), collects v·w_j (side 0) and w_j·v (side 1) for every kernel
    row w_j at once, over the nonempty cells of the rows and columns of the
    product table that v reaches: its smallest key is v's smallest failing
    j, at equal j the left side first."""
    dim = algebra.dim
    at = [[] for _ in range(dim)]   # at[b]: (2j·D, w_j[b]) for w_j[b] != 0
    for j, w in enumerate(kernel.basis):
        for b, y in w.items():
            at[b].append((2 * j * dim, y))
    rows = ideal.basis
    sides = [row.items() for row in algebra.products], algebra.column_index

    def fill(acc, i):
        for side, cells in enumerate(sides):
            offset = side * dim
            for a, x in rows[i].items():
                for b, cell in cells[a]:
                    for base, y in at[b]:
                        _add(acc, base + offset, x * y, cell)

    fail = next(_residues(algebra.field, range(len(rows)), fill, dim, 2), None)
    if fail is None:
        return None
    i, j, side = fail
    return (f"kernel[{j}]*ideal[{i}] is nonzero" if side
            else f"ideal[{i}]*kernel[{j}] is nonzero")


def _first_dependent(span, vectors):
    """The first index t at which vectors[t] lies in ``span`` plus the
    vectors before it; None when there is none."""
    for t, v in enumerate(vectors):
        if v in span:
            return t
        span += Subspace.span(span.field, span.ambient, [v])
    return None


def _direct_sum_witness(algebra, ideal, kernel, total):
    """Why I + K = ``total`` is not a direct sum equal to the algebra: the
    first kernel basis vector lying in I plus the kernel vectors before it,
    else the first basis label outside I + K."""
    if ideal.dim + kernel.dim > total.dim:
        j = _first_dependent(ideal, kernel.basis)
        return f"kernel[{j}] lies in ideal + kernel[:{j}]"
    one = algebra.field.one
    b = next(b for b in range(algebra.dim) if {b: one} not in total)
    return f"{algebra.labels[b]} lies outside ideal + kernel"


def _restriction_witness(d, images, image):
    """Why φ, restricted to the ideal, is not a bijection onto its image:
    the first ideal row whose image lies in the span of the earlier rows'
    images, else the first echelon row of φ's image or of ``image`` (the
    span of ``images``) that lies outside the other; None when it is one."""
    if image.dim < len(images):
        t = _first_dependent(Subspace.span(image.field, image.ambient, []), images)
        return f"phi(ideal[{t}]) lies in the span of phi(ideal[:{t}])"
    return _route_witness(d.mat, d.image, image, "restricted")


def _delta_convention_tally(d, left):
    """Which printed Kronecker condition reproduces the true left product of
    the complementary ideal by basis elements: l = gh (the product rule),
    k = gh, or h = kl; and where the product rule first fails.  The true
    products b·v are read from ``left``, the left multiples of each sparse
    echelon row v of the ideal.  A row v = x#p_h in one block (g, h)
    predicts b_j#p_l · v from b_j·x, read off the twisted ring's own table
    (``skew.algebra.multiples(x)``): ``build_skew`` formed each cell as
    y·α_k(a), for b_j = y at k, and placed it in D_kg.

    Only the j where b_j·x or some b_j#p_l·v is nonzero are visited: at
    every other j the true product and all three predictions are empty.
    For each visited j only l = gh, l = k⁻¹h and the l with a nonzero
    product are compared: at every other l the true product and the l = gh
    and h = kl predictions are all empty, so one such l decides k = gh.

    Returns (conventions, first): ``first`` is None when l = gh holds, else
    (t, b) for the first homogeneous echelon row t and the least smash index
    b = b_j#p_l at which its true product differs from the l = gh
    prediction."""
    smash = d.smash
    skew = smash.skew
    grp = skew.group
    n = grp.order
    grades = skew.grades
    conventions = {"l=gh": True, "k=gh": True, "h=kl": True}
    first = None
    none = {}
    for t, (v, products) in enumerate(zip(d.ideal.basis, left)):
        blocks = {(grades[j], h) for j, h in map(smash.parts, v)}
        if len(blocks) != 1:
            continue
        (g, h), = blocks
        reached = {}   # j: the dual indices l with b_j#p_l · v nonzero
        for b in products:
            j, l = smash.parts(b)
            reached.setdefault(j, set()).add(l)
        gh = grp.mul(g, h)
        by_j = skew.algebra.multiples({idx // n: c for idx, c in v.items()})
        # the payload b_j·x at dual index h is compared at the dual indices
        # l that can differ; h = kl holds exactly at l = k^{-1}h
        for j in by_j.keys() | reached.keys():
            k = grades[j]
            payload = {smash.index(i, h): c for i, c in by_j.get(j, none).items()}
            at_k = payload if k == gh else none
            kinv_h = grp.mul(grp.inv(k), h)
            base = smash.index(j, 0)
            ls = reached.get(j, set()) | {gh, kinv_h}
            if len(ls) < n and at_k:
                conventions["k=gh"] = False
            for l in ls:
                true = products.get(base + l, none)
                if true != (payload if l == gh else none):
                    conventions["l=gh"] = False
                    if first is None or first[0] == t and base + l < first[1]:
                        first = (t, base + l)
                if true != at_k:
                    conventions["k=gh"] = False
                if true != (payload if l == kinv_h else none):
                    conventions["h=kl"] = False
    return conventions, first


def decomposition_report(d):
    """The splitting of the smash product into the kernel and an ideal that
    maps bijectively onto the Pierce corner.  ``build_duality`` proved φ
    multiplicative, so φ(bk) = φ(b)φ(k) = 0 = φ(kb) for k in the kernel:
    ``duality.kernel_two_sided`` states that the kernel is an ideal."""
    B = d.smash.algebra
    results = []

    left = [B.multiples(r) for r in d.ideal.basis]
    results.append(check("duality.ideal_two_sided", {"ideal_dim": d.ideal.dim},
                         _is_two_sided_ideal(B, d.ideal, left)))
    results.append(check("duality.kernel_two_sided", {"kernel_dim": d.kernel.dim}))

    total = d.ideal + d.kernel
    # dim(I ∩ K) = dim I + dim K − dim(I + K)
    meet = d.ideal.dim + d.kernel.dim - total.dim
    results.append(check("duality.direct_sum",
                         {"intersection_dim": meet, "sum_dim": total.dim,
                          "dim": B.dim},
                         None if meet == 0 and total.dim == B.dim else
                         _direct_sum_witness(B, d.ideal, d.kernel, total)))

    # φ on the ideal's echelon rows, from the sparse columns of φ; the
    # rank of the restriction is the dimension of their span
    images = [d.phi.apply(r) for r in d.ideal.basis]
    image = Subspace.span(B.field, d.mat.dim, images)
    results.append(check("duality.restricted_bijection",
                         {"restricted_rank": image.dim,
                          "corner_dim": d.image.dim},
                         _restriction_witness(d, images, image)))

    cross = _cross_product_witness(B, d.ideal, d.kernel)
    results.append(check("duality.cross_products_zero", {}, cross))

    conv, first = _delta_convention_tally(d, left)
    results.append(check("duality.ideal_product_delta",
                         {f"matches[{k}]": v for k, v in sorted(conv.items())},
                         None if first is None else
                         f"{B.labels[first[1]]} times ideal[{first[0]}] differs "
                         f"from the l=gh prediction"))
    return results


def skew_injectivity_report(d):
    """The embedded twisted group ring meets the kernel trivially, and the
    blockwise reason holds: A(1-1_g)1_g = 0 for every g.  That reason is
    1_g·1_g = 1_g, which ``make_partial_action`` proved for every g
    (``ideal_basis`` refuses an idempotent that is not one), so
    ``duality.skew_embedding_argument`` states it."""
    smash = d.smash
    ker = d.phi.compose(smash.embed_skew_map).kernel()
    return [
        check("duality.skew_embedding_injective",
              {"kernel_dim": ker.dim, "skew_dim": smash.skew.dim},
              None if ker.is_zero() else
              f"twisted ring row {smash.skew.algebra.format_vec(ker.basis[0])} "
              f"maps to 0 under phi"),
        check("duality.skew_embedding_argument"),
    ]
