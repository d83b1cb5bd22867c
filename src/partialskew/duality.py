"""The matrix picture of the smash product and its exact verification.

The smash product maps into square matrices over the base algebra, indexed
by the group: a homogeneous generator a#p_h of grade g goes to
h^{-1}·(g^{-1}·a) placed in row gh, column h.  Everything the theory
promises about this map is re-proved here per instance, by linear algebra:

  * the map is multiplicative and sends the unit to the corner idempotent
    (the diagonal matrix of the idempotents of the inverses);
  * its kernel equals the explicit block formula (two independent routes);
  * its image equals both the entrywise-constrained subspace and the Pierce
    corner cut out by the corner idempotent (three independent routes);
  * the smash product splits as (kernel) × (complementary ideal), with the
    map restricting to a bijection from the ideal onto the corner;
  * the canonical separating element of B⊗B over the embedded twisted
    group ring R centralizes it and multiplies to the unit, compared in
    B⊗_R B ≅ B^{|G|}, since B is (verifiably) free over R on {1#p_h}.
"""

from __future__ import annotations

from .algebras import AlgebraMap, _lincomb, matrix_algebra
from .errors import InternalCheckFailed
from .linalg import Mat, Subspace, _sparse, image_basis, vadd, vsub, vzero
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


def _block_subspace(smash, multiplier):
    """Span of {x·multiplier(g,h) placed at grade g with dual index h}."""
    skew = smash.skew
    pa = skew.action
    alg = pa.algebra
    field = alg.field
    n = pa.group.order
    dim = smash.dim
    vectors = []
    for g in range(n):
        for h in range(n):
            m = multiplier(g, h)
            for i in range(alg.dim):
                v = alg._basis_times_vec(i, m)
                if not any(v):
                    continue
                coords = pa.ideals[g].coordinates_of(v)
                if coords is None:
                    raise InternalCheckFailed("block generator left its ideal")
                vec = list(vzero(field, dim))
                for t, c in enumerate(coords):
                    vec[smash.index(skew.offsets[g] + t, h)] = c
                vectors.append(tuple(vec))
    return Subspace.from_vectors(field, dim, vectors)


def kernel_formula_subspace(smash):
    """Blockwise kernel formula: A(1-1_{gh})1_g in grade g, dual index h."""
    pa = smash.skew.action
    alg = pa.algebra
    grp = pa.group

    def multiplier(g, h):
        comp = vsub(alg.field, alg.unit, pa.idempotents[grp.mul(g, h)])
        return alg.mul_vec(comp, pa.idempotents[g])

    return _block_subspace(smash, multiplier)


def complement_ideal_subspace(smash):
    """Blockwise complement: A·1_{gh}·1_g in grade g, dual index h."""
    pa = smash.skew.action
    grp = pa.group

    def multiplier(g, h):
        return pa.algebra.mul_vec(pa.idempotents[grp.mul(g, h)], pa.idempotents[g])

    return _block_subspace(smash, multiplier)


def _verify_twisted_entry_identity(pa):
    """The entry identity behind multiplicativity, checked exhaustively:
    k^{-1}·((gh)^{-1}·(a(g·b))) = ((hk)^{-1}·(g^{-1}·a)) (k^{-1}·(h^{-1}·b))
    for all group triples and all basis pairs a of D_g, b of D_h."""
    alg, grp = pa.algebra, pa.group
    n = grp.order
    for g in range(n):
        for h in range(n):
            gh = grp.mul(g, h)
            for k in range(n):
                hk = grp.mul(h, k)
                for a in pa.ideals[g].basis:
                    ga_part = pa.dot_vec(grp.inv(hk), pa.dot_vec(grp.inv(g), a))
                    for b in pa.ideals[h].basis:
                        lhs = pa.dot_vec(
                            grp.inv(k),
                            pa.dot_vec(grp.inv(gh),
                                       alg.mul_vec(a, pa.dot_vec(g, b))))
                        rhs = alg.mul_vec(
                            ga_part,
                            pa.dot_vec(grp.inv(k), pa.dot_vec(grp.inv(h), b)))
                        if lhs != rhs:
                            raise InternalCheckFailed(
                                f"entry identity fails at ({grp.label(g)},"
                                f"{grp.label(h)},{grp.label(k)})")


def build_duality(smash):
    """Assemble the matrix map, verify it is a homomorphism, and compute the
    kernel, image and complementary ideal."""
    skew = smash.skew
    pa = skew.action
    alg, grp = pa.algebra, pa.group
    n = grp.order
    mat = matrix_algebra(alg, grp)

    cols = []
    for j in range(skew.dim):
        g, i = skew.grade_of(j)
        a = skew.component_bases[g][i]
        ginv_a = pa.dot_vec(grp.inv(g), a)
        for h in range(n):
            c = pa.dot_vec(grp.inv(h), ginv_a)
            cols.append(mat.place(grp.mul(g, h), h, c))
    phi = AlgebraMap.from_columns(smash.algebra, mat, cols)

    _verify_twisted_entry_identity(pa)
    if not phi.is_multiplicative():
        raise InternalCheckFailed("matrix map is not multiplicative")

    bold_e = vzero(alg.field, mat.dim)
    for g in range(n):
        bold_e = vadd(alg.field, bold_e, mat.place(g, g, pa.idempotents[grp.inv(g)]))
    if phi.apply_vec(smash.algebra.unit) != bold_e:
        raise InternalCheckFailed("unit does not map to the corner idempotent")
    if mat.mul_vec(bold_e, bold_e) != bold_e:
        raise InternalCheckFailed("corner element is not idempotent")

    return DualityData(smash, mat, phi, bold_e, phi.kernel(), phi.image(),
                       complement_ideal_subspace(smash))


# -- report-producing checks ---------------------------------------------

def kernel_report(d):
    formula = kernel_formula_subspace(d.smash)
    agree = formula == d.kernel
    witnesses = [] if agree else ["kernel of the matrix map differs from the block formula"]
    return [check("duality.kernel_formula", agree,
                  {"kernel_dim": d.kernel.dim, "formula_dim": formula.dim},
                  witnesses)]


def corner_report(d):
    pa = d.smash.skew.action
    alg, grp, mat = pa.algebra, pa.group, d.mat
    n = grp.order

    vectors = []
    for r in range(n):
        for s in range(n):
            m = alg.mul_vec(pa.idempotents[grp.inv(r)], pa.idempotents[grp.inv(s)])
            for i in range(alg.dim):
                v = alg._basis_times_vec(i, m)
                if any(v):
                    vectors.append(mat.place(r, s, v))
    entrywise = Subspace.from_vectors(alg.field, mat.dim, vectors)

    pierce = Subspace.from_vectors(
        alg.field, mat.dim,
        [mat.mul_vec(d.corner_idempotent,
                     mat.mul_vec(mat.basis_element(b).coeffs,
                                 d.corner_idempotent))
         for b in range(mat.dim)])

    results = [
        check("duality.image_entrywise", d.image == entrywise,
              {"image_dim": d.image.dim, "entrywise_dim": entrywise.dim}),
        check("duality.image_pierce", d.image == pierce,
              {"image_dim": d.image.dim, "pierce_dim": pierce.dim}),
        check("duality.corner_idempotent",
              d.phi.apply_vec(d.smash.algebra.unit) == d.corner_idempotent
              and mat.mul_vec(d.corner_idempotent, d.corner_idempotent)
              == d.corner_idempotent,
              {"matrix_dim": mat.dim}),
    ]
    return results


def _scaled_cells(sparse, terms):
    """Σ x·cell over the (x, cell) pairs, as a zero-free sparse row put in
    canonical form by the field normaliser ``sparse``."""
    acc = {}
    get = acc.get
    for x, cell in terms:
        for k, v in cell:
            acc[k] = get(k, 0) + x * v
    return sparse(acc)


def _is_two_sided_ideal(algebra, subspace):
    """(True, "") when b·r and r·b lie in the subspace for every basis
    element b and echelon row r; else (False, message) for the first
    failure, b-major and left before right.  Works on the sparse echelon
    rows."""
    sparse = algebra.field.sparse
    prods = algebra.products
    rows = [list(r.items()) for r in subspace._rows.values()]
    for b in range(algebra.dim):
        left = prods[b]
        for r in rows:
            if subspace._residual(_scaled_cells(
                    sparse, ((x, left[j]) for j, x in r))):
                return False, f"left multiple of {algebra.labels[b]} escapes"
            if subspace._residual(_scaled_cells(
                    sparse, ((x, prods[i][b]) for i, x in r))):
                return False, f"right multiple of {algebra.labels[b]} escapes"
    return True, ""


def _cross_product_witness(algebra, ideal, kernel):
    """First (ideal basis index, kernel basis index, side) whose product
    is nonzero, ideal·kernel before kernel·ideal, or None."""
    mul = algebra._mul_sparse
    ks = [_sparse(w) for w in kernel.basis]
    for i, v in enumerate(ideal.basis):
        sv = _sparse(v)
        for j, w in enumerate(ks):
            if mul(sv, w):
                return f"ideal[{i}]*kernel[{j}] is nonzero"
            if mul(w, sv):
                return f"kernel[{j}]*ideal[{i}] is nonzero"
    return None


def _block_of(smash, vec):
    """(grade, dual index) of a vector supported in a single block."""
    found = None
    for idx, c in enumerate(vec):
        if not c:
            continue
        j, h = smash.parts(idx)
        g, _ = smash.skew.grade_of(j)
        if found is None:
            found = (g, h)
        elif found != (g, h):
            return None
    return found


def _delta_convention_tally(d):
    """Which printed Kronecker condition reproduces the true left product of
    the complementary ideal by basis elements: l = gh (the product rule),
    k = gh, or h = kl."""
    smash = d.smash
    skew = smash.skew
    pa = skew.action
    alg, grp = pa.algebra, pa.group
    B = smash.algebra
    one = alg.field.one
    conventions = {"l=gh": True, "k=gh": True, "h=kl": True}
    for v in d.ideal.basis:
        blk = _block_of(smash, v)
        if blk is None:
            continue
        g, h = blk
        a_part = skew.project(
            tuple(v[smash.index(j, h)] for j in range(skew.dim)), g)
        v_sparse = {i: c for i, c in enumerate(v) if c}
        # the payload y·(k ▷ a) depends on the skew index j alone, so it is
        # formed once per j and compared against every dual index l
        for j in range(skew.dim):
            k, pos = skew.grade_of(j)
            y = skew.component_bases[k][pos]
            w = alg.mul_vec(y, pa.dot_vec(k, a_part))
            kg = grp.mul(k, g)
            coords = pa.ideals[kg].coordinates_of(w)
            if coords is None:
                raise InternalCheckFailed("ideal product left its graded block")
            payload = {smash.index(skew.offsets[kg] + t, h): c
                       for t, c in enumerate(coords) if c}
            for l in range(grp.order):
                true = B._mul_sparse({smash.index(j, l): one}, v_sparse)
                for name, cond in (("l=gh", l == grp.mul(g, h)),
                                   ("k=gh", k == grp.mul(g, h)),
                                   ("h=kl", h == grp.mul(k, l))):
                    if true != (payload if cond else {}):
                        conventions[name] = False
    return conventions


def decomposition_report(d):
    """The splitting of the smash product into the kernel and an ideal that
    maps bijectively onto the Pierce corner."""
    B = d.smash.algebra
    results = []

    ok, why = _is_two_sided_ideal(B, d.ideal)
    results.append(check("duality.ideal_two_sided", ok,
                         {"ideal_dim": d.ideal.dim}, [why] if why else []))
    ok, why = _is_two_sided_ideal(B, d.kernel)
    results.append(check("duality.kernel_two_sided", ok,
                         {"kernel_dim": d.kernel.dim}, [why] if why else []))

    inter = d.ideal.intersect(d.kernel)
    total = d.ideal + d.kernel
    results.append(check("duality.direct_sum",
                         inter.is_zero() and total.dim == B.dim,
                         {"intersection_dim": inter.dim, "sum_dim": total.dim,
                          "dim": B.dim}))

    restricted = [d.phi.apply_vec(v) for v in d.ideal.basis]
    restricted_matrix = Mat.from_columns(B.field, restricted, rows=d.mat.dim)
    image = image_basis(restricted_matrix)
    results.append(check("duality.restricted_bijection",
                         image == d.image and restricted_matrix.rank() == d.ideal.dim,
                         {"restricted_rank": restricted_matrix.rank(),
                          "corner_dim": d.image.dim}))

    cross = _cross_product_witness(B, d.ideal, d.kernel)
    results.append(check("duality.cross_products_zero", cross is None, {},
                         [cross] if cross else []))

    conv = _delta_convention_tally(d)
    results.append(check("duality.ideal_product_delta", conv["l=gh"],
                         {f"matches[{k}]": v for k, v in sorted(conv.items())}))
    return results


def skew_injectivity_report(d):
    """The embedded twisted group ring meets the kernel trivially, and the
    blockwise reason holds: A(1-1_g)1_g = 0 for every g."""
    smash = d.smash
    pa = smash.skew.action
    alg = pa.algebra
    composite = d.phi.compose(smash.embed_skew())
    ker = composite.kernel()

    argument_ok = True
    for g in range(pa.group.order):
        comp = vsub(alg.field, alg.unit, pa.idempotents[g])
        m = alg.mul_vec(comp, pa.idempotents[g])
        span = Subspace.from_vectors(
            alg.field, alg.dim,
            [alg._basis_times_vec(i, m) for i in range(alg.dim)])
        if not span.is_zero():
            argument_ok = False
    return [
        check("duality.skew_embedding_injective", ker.is_zero(),
              {"kernel_dim": ker.dim, "skew_dim": smash.skew.dim}),
        check("duality.skew_embedding_argument", argument_ok, {}),
    ]


def _embedded_basis(smash):
    """ι(b_j) for every basis vector b_j of the twisted ring R, sparse."""
    return [_sparse(col) for col in smash.embed_skew().matrix.columns()]


def _dual_units(smash):
    """1#p_h for every h, sparse."""
    unit = _sparse(smash.skew.algebra.unit)
    return [{smash.index(j, h): c for j, c in unit.items()}
            for h in range(smash.group.order)]


def _verify_free_over_twisted_ring(smash):
    """ι(b_j)·(1#p_h) = b_j#p_h for every j and h: B is a free left R-module
    on {1#p_h}, so B⊗_R B ≅ B^{|G|}."""
    B = smash.algebra
    units = _dual_units(smash)
    for j, a in enumerate(_embedded_basis(smash)):
        for h, u in enumerate(units):
            if B._mul_sparse(a, u) != {smash.index(j, h): B.field.one}:
                raise InternalCheckFailed(
                    f"smash is not free over the twisted ring at "
                    f"({smash.skew.algebra.labels[j]}, p_{smash.group.label(h)})")


def _tensor_image(smash, element):
    """Φ(Σ x⊗y) = (Σ x·ι(y_h))_h in B^{|G|}, for the element given as (x, y)
    pairs of sparse vectors of B, where y = Σ_h ι(y_h)·(1#p_h)."""
    B = smash.algebra
    n = smash.group.order
    iota = _embedded_basis(smash)
    slots = [[] for _ in range(n)]
    for x, y in element:
        blocks = [[] for _ in range(n)]
        for idx, c in y.items():
            j, h = smash.parts(idx)
            blocks[h].append((c, iota[j]))
        for h, terms in enumerate(blocks):
            if terms:
                slots[h].append((B.field.one, B._mul_sparse(x, _lincomb(B.field, terms))))
    return [_lincomb(B.field, terms) for terms in slots]


def _centrality_witness(smash, element):
    """First (label of a basis vector a of R, dual index label), a-major,
    where Φ(f·ι(a)) and Φ(ι(a)·f) differ for the tensor element f; None
    when f centralizes the embedded twisted ring."""
    mul = smash.algebra._mul_sparse
    for j, a in enumerate(_embedded_basis(smash)):
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
    mu = _lincomb(field, ((field.one, B._mul_sparse(x, y)) for x, y in element))
    split = next((B.labels[k] for k, c in enumerate(B.unit)
                  if mu.get(k, field.zero) != c), None)
    return [
        check("separability.centralizes", central is None,
              {"ambient_dim": B.dim * B.dim,
               "relation_dim": B.dim * B.dim - smash.group.order * B.dim},
              [] if central is None else
              [f"f*a != a*f for a = {central[0]} in component p_{central[1]}"]),
        check("separability.splits_multiplication", split is None, {},
              [] if split is None else [f"mu(f) differs from the unit at {split}"]),
        check("separability.element_nonzero",
              any(_tensor_image(smash, element)), {"tensor_terms": len(element)}),
    ]


def separability_report(smash):
    """Σ_h (1#p_h)⊗(1#p_h) ∈ B⊗_R B centralizes R and multiplies to 1; the
    balancing relations of B⊗B, reported by dimension, are ker Φ."""
    _verify_free_over_twisted_ring(smash)
    return _separability_checks(smash, [(u, u) for u in _dual_units(smash)])
