"""Structure-constant Hopf algebras, partial Hopf actions, and their
operator picture.

A Hopf algebra is a validated structure algebra with sparse
comultiplication triples (k, l, v), the counit as a sparse vector
``{index: scalar}`` and the antipode as sparse columns S(b_j) =
``{row: scalar}``; ``make_hopf`` proves
coassociativity, the counit laws, that coproduct and counit are algebra
maps, and the antipode identity, on every basis element, and inverts S.
The dual swaps the two sets of constants and transposes S: one helper,
``_transposed``, makes those tables, for ``HopfData.dual``, which proves the
dual's axioms, and for the double dual, which ``hopf_data_checks`` only
compares with H part by part.  ``HopfData``
reads Δ(b_i) as a vector of H⊗H and the hit actions p_m ⇀ b_i and
b_i ↼ p_m off the triples once; every later use reads them.  A map on the
last tensor leg, like every table of sparse columns, is applied by the one
kernel of :mod:`algebras`, ``_image``; ``_on_leg`` is its reduced form.
Each identity that compares a left side with a sum over Δ (action axioms 1
and 3, the λ/ρ exchange identity, the corner exchange lemma, and the
comodule and module laws of the partial smash) runs on the skeleton of
:mod:`algebras`, ``_residues``: one accumulator per outer index holds the
left side minus the right for every inner tuple at once, is reduced once,
and its smallest key names the first failing tuple.

Every algebra this layer builds is a smash product A # B, (x#b)(y#c) =
Σ x(b₁▷y) # b₂c, made by ``algebras.smash_algebra`` and validated through
``make_algebra``: H # H^* and H^* # H acting on H through the hit actions,
whose operator representations satisfy the exchange identity; A⊗H twisted
by a partial action of H on A (so the unit of A need not absorb h·1), whose
unital corner is the partial smash product; and (A⊗H) # H^*, the domain of
the operator duality map into A⊗End(H).  Around them sit the coaction
induced by a partial action and the corner maps into A⊗End(H).

Each invariant is proved once, by the builder that returns the object, and
a report on that object states it: ``make_hopf`` for ``antipode_rank`` of
``hopf.axioms`` and the ``counit``, ``coassociative`` and ``unit_acts``
sub-checks of the partial smash; ``make_partial_hopf_action`` (axioms 1 and
2) for ``coaction.multiplicative`` and ``coaction.counit``;
``build_corner_maps`` and ``build_representations`` (φ multiplicative, λ
unital) for ``hopf.corner_maps`` and ``opduality.idempotent``; and
``make_hopf`` or ``group_hopf`` for the axioms of the double dual, which
``hopf.dual_axioms`` finds equal to H and does not prove again.  The
operators λ(b_i#p_j) and ρ(p_j#b_i) are read off the products of each
p_j ⇀ b_x and b_x ↼ p_j with every basis vector.  A partial
Hopf action is kept only as the sparse columns ``acts[i][x]`` = b_i ▷ a_x,
and the lift of a group action acts by α's own columns.  A builder's
refusal is raised, never caught here: the suite runner reports it.
"""

from __future__ import annotations

from .algebras import (AlgebraMap, _add, _image, _lincomb, _residues,
                       _pure_tensor, _sparse_columns, _sparse_vector,
                       field_algebra, make_algebra, smash_algebra)
from .constructions import _pierce_corner, group_algebra, matrix_algebra, tensor_algebra
from .errors import (AntipodeNotInvertible, Axiom1Fails, Axiom2Fails,
                     Axiom3Fails, FieldMismatch, HopfAxiomFails,
                     InternalCheckFailed, ValidationError)
from .linalg import Subspace, _inverse, _transpose
from .report import FAIL, PASS, CheckResult, check


class HopfData:
    """A finite-dimensional Hopf algebra by structure constants."""

    __slots__ = ("algebra", "comul", "counit", "antipode", "antipode_inv",
                 "coproduct", "left_hits", "right_hits", "_dual")

    def __init__(self, algebra, comul, counit, antipode, antipode_inv):
        self.algebra = algebra
        self.comul = comul            # per basis i: tuple of (k, l, coeff)
        self.counit = counit          # ε as {index: scalar}
        self.antipode = antipode            # S(b_j) and S^{-1}(b_j) as {row: scalar}
        self.antipode_inv = antipode_inv
        self._dual = None
        # Δ(b_i) as {k·d + l: v}, p_m ⇀ b_i and b_i ↼ p_m as {index: scalar};
        # a row of ``comul`` names each pair (k, l) at most once
        d = algebra.dim
        self.coproduct = [{k * d + l: v for k, l, v in row} for row in comul]
        self.left_hits = [[{k: v for k, l, v in row if l == m} for row in comul]
                          for m in range(d)]
        self.right_hits = [[{l: v for k, l, v in row if k == m} for row in comul]
                           for m in range(d)]

    @property
    def dim(self):
        return self.algebra.dim

    def dual(self):
        """The dual Hopf algebra on the dual basis (memoized), its tables
        from ``_transposed`` and its axioms proved by ``_checked_hopf``."""
        if self._dual is None:
            self._dual = _checked_hopf(*_transposed(self))
        return self._dual


def make_hopf(algebra, comul, counit, antipode):
    """Validate Hopf structure constants over an already validated algebra.

    ``comul[i]`` lists triples (k, l, v) with Δ(b_i) = Σ v·b_k⊗b_l, each k
    and l an ``int`` in range, and the values go through the field's
    ``scalars``.  The counit is a sparse vector ``{index: scalar}`` and the
    antipode its sparse columns S(b_j) = ``{row: scalar}``, both read in the
    algebra's field (ValueError for a malformed one, see
    ``algebras._sparse_columns``).
    """
    field, d = algebra.field, algebra.dim
    comul = [tuple(row) for row in comul]
    if len(comul) != d:
        raise ValidationError("comultiplication has wrong dimension")
    for t in (t for row in comul for t in row):
        if not all(type(i) is int and 0 <= i < d for i in t[:2]):
            raise ValidationError(f"comultiplication triple {t!r} needs int indices in 0..{d - 1}")
    comul = tuple(tuple(sorted(((k, l, v) for (k, l, _), v in
                                zip(row, field.scalars(t[2] for t in row)) if v),
                               key=lambda t: t[:2])) for row in comul)
    if any(len({t[:2] for t in row}) != len(row) for row in comul):
        raise ValidationError("comultiplication repeats a pair (k, l) in one row")
    return _checked_hopf(algebra, comul, _sparse_vector(algebra, counit, "counit"),
                         _sparse_columns(field, antipode, d, d, "antipode column"))


def _checked_hopf(algebra, comul, counit, antipode):
    """The Hopf algebra on canonical comultiplication rows (sorted by (k, l),
    no pair twice) and counit, with the antipode columns S(b_j), once every
    axiom holds and S is invertible."""
    field, d = algebra.field, algebra.dim
    # the inverse antipode is set once the antipode has passed its check
    h = HopfData(algebra, comul, counit, antipode, None)
    cop = h.coproduct
    # coassociativity: (Δ⊗1)Δ = (1⊗Δ)Δ, with b_i⊗b_l ↦ Δ(b_i)⊗b_l on the
    # last two legs of Δ(b_i), a vector of k⊗H⊗H
    middle = [{kl * d + l: v for kl, v in cop[i].items()}
              for i in range(d) for l in range(d)]
    i = next((i for i, vec in enumerate(cop) if _on_leg(field, middle, d ** 3, vec)
              != _on_leg(field, cop, d * d, vec)), None)
    if i is not None:
        raise HopfAxiomFails("coassociativity", f"basis {algebra.labels[i]}")

    # counit laws: (ε⊗1)Δ(b_i) = b_i = (1⊗ε)Δ(b_i)
    eps = counit.get
    for i in range(d):
        left = _lincomb(field, ((v * eps(k, 0), {l: 1}) for k, l, v in comul[i]))
        right = _lincomb(field, ((v * eps(l, 0), {k: 1}) for k, l, v in comul[i]))
        if left != {i: field.one} or right != {i: field.one}:
            raise HopfAxiomFails("counit", f"basis {algebra.labels[i]}")

    # coproduct and counit are algebra maps, on sparse vectors of H⊗H
    reduce, labels = field.reduce, algebra.labels
    hh = tensor_algebra(algebra, algebra)
    for i in range(d):
        row = algebra.products[i]
        for j in range(d):
            prod = row.get(j, ())
            if _lincomb(field, ((c, cop[t]) for t, c in prod)) != hh.mul(cop[i], cop[j]):
                axiom = "coproduct multiplicative"
            elif reduce(sum(c * eps(t, 0) for t, c in prod) - eps(i, 0) * eps(j, 0)):
                axiom = "counit multiplicative"
            else:
                continue
            raise HopfAxiomFails(axiom, f"pair ({labels[i]}, {labels[j]})")
    unit = algebra.unit
    if _on_leg(field, cop, d * d, unit) != _on_leg(field, [unit], d, unit):
        raise HopfAxiomFails("coproduct unital", "unit element")
    if reduce(sum(c * eps(t, 0) for t, c in unit.items())) != field.one:
        raise HopfAxiomFails("counit unital", "unit element")

    # antipode identity on every basis element: S(b_k)b_l and b_kS(b_l)
    # summed over Δ(b_i) equal ε(b_i)·1
    mul = algebra.mul
    for i in range(d):
        want = _lincomb(field, [(eps(i, 0), unit)])
        if (_lincomb(field, ((v, mul(antipode[k], {l: 1})) for k, l, v in comul[i])) != want
                or _lincomb(field, ((v, mul({k: 1}, antipode[l])) for k, l, v in comul[i])) != want):
            raise HopfAxiomFails("antipode", f"basis {labels[i]}")

    h.antipode_inv = _inverse(field, antipode)
    if h.antipode_inv is None:
        raise AntipodeNotInvertible()
    return h


def _transposed(h):
    """The tables of the dual of ``h`` on the dual basis, as (algebra,
    comultiplication, counit, antipode): the product is the transposed
    comultiplication, validated by ``make_algebra`` with the counit as its
    unit; the comultiplication is the transposed product, the counit the
    unit of H and the antipode the transpose of S."""
    field, d = h.algebra.field, h.dim
    products = [{} for _ in range(d)]
    for i in range(d):
        for k, l, v in h.comul[i]:
            products[k].setdefault(l, []).append((i, v))
    algebra = make_algebra(field, products, h.counit,
                           labels=[f"p_{lab}" for lab in h.algebra.labels])
    comul = [[] for _ in range(d)]
    for k, row in enumerate(h.algebra.products):
        for l, cell in row.items():
            for i, v in cell:
                comul[i].append((k, l, v))
    return algebra, tuple(map(tuple, comul)), h.algebra.unit, _transpose(h.antipode, d)


def group_hopf(field, group):
    """The group algebra with its grouplike coproduct and inversion antipode."""
    alg = group_algebra(field, group)
    n, one = group.order, field.one
    return _checked_hopf(alg, tuple(((g, g, one),) for g in range(n)),
                         dict.fromkeys(range(n), one),
                         [{group.inv(g): one} for g in range(n)])


# -- sparse helpers --------------------------------------------------------

def _on_leg(field, table, width, vec):
    """b_i ↦ ``table[i]`` on the last leg of ``vec``, reduced: the index
    x·d + i, d = len(table), goes to x·width + t (see ``algebras._image``)."""
    return field.sparse(_image(table, vec.items(), width=width))


def _hit_by(h, cols):
    """``[x][u]`` = b_x ↼ M(p_u), M the map on the dual basis with sparse
    columns ``cols``."""
    return [[_lincomb(h.algebra.field, ((c, h.right_hits[m][x]) for m, c in s.items()))
             for s in cols] for x in range(h.dim)]


# -- operator representations --------------------------------------------

def build_representations(h):
    """Operator picture of H#H^* and H^*#H on H, with the exchange identity;
    returns λ, the algebra map H # H^* -> End(H).

    H # H^* has (h#f)(k#g) = sum of h(f1⇀k) # f2*g, and H^* # H has
    (f#h)(g#k) = sum of f·(h1⇀g) # h2·k, where (h⇀g)(x) = g(xh).
    The left representation must be an algebra map, the right one an algebra
    anti-map, and for all basis h, f, g the exchange identity
    λ(h#f)ρ(g#1) = sum of ρ(g2#1)λ((h↼S(g1))#f) must hold; any failure
    aborts, since these are theorems for every valid Hopf algebra.
    """
    dual, d, field = h.dual(), h.dim, h.algebra.field
    end = matrix_algebra(field_algebra(field), d)   # End(H), as matrix units
    ls = smash_algebra(h.algebra, dual.algebra, dual.comul, h.left_hits,
                       _pure_tensor(field, h.algebra.unit, dual.algebra.unit, d))
    # h⇀g is the left hit action of H = (H^*)^* on H^*
    rs = smash_algebra(dual.algebra, h.algebra, h.comul, dual.left_hits,
                       _pure_tensor(field, dual.algebra.unit, h.algebra.unit, d))

    lam_ops, rho_ops = ops = _basis_operators(h)
    lam = AlgebraMap(ls, end, [_end_vec(op) for row in lam_ops for op in row])
    if not (lam.is_multiplicative() and lam.is_unital()):
        raise InternalCheckFailed("left operator representation is not an algebra map")

    rho = AlgebraMap(rs, end, [_end_vec(op) for row in rho_ops for op in row])
    if not rho.is_unital():
        raise InternalCheckFailed("right operator representation is not unital")
    if rho._multiplicativity_witness(anti=True) is not None:
        raise InternalCheckFailed("right operator representation is not an anti-map")

    _verify_exchange_identity(h, ops)
    return lam


# An operator on H is a list of d sparse columns: column x is the image of
# b_x as ``{row: scalar}``.

def _end_vec(op):
    """An operator as a sparse vector of End(H), entry (r, x) at r·d + x."""
    d = len(op)
    return {r * d + x: c for x, col in enumerate(op) for r, c in col.items()}


def _basis_operators(h):
    """``lam[i][j]`` = λ(b_i#p_j): x ↦ b_i(p_j ⇀ x), and ``rho[j][i]`` =
    ρ(p_j#b_i): x ↦ (x ↼ p_j)b_i, as sparse operators, read off the
    products of each p_j ⇀ b_x and b_x ↼ p_j with every basis vector
    (``StructureAlgebra.multiples``): d² walks of each side."""
    d, multiples = h.dim, h.algebra.multiples
    # [j][x]: {i: b_i(p_j ⇀ b_x)} and {i: (b_x ↼ p_j)b_i}
    by_left = [[multiples(hit) for hit in row] for row in h.left_hits]
    by_right = [[multiples(hit, left=False) for hit in row] for row in h.right_hits]
    lam = [[[by_left[j][x].get(i, {}) for x in range(d)] for j in range(d)]
           for i in range(d)]
    rho = [[[by_right[j][x].get(i, {}) for x in range(d)] for i in range(d)]
           for j in range(d)]
    return lam, rho


def _verify_exchange_identity(h, ops):
    """λ(h#f)ρ(g#1) = Σ ρ(g2#1)λ((h↼S(g1))#f) on every basis triple (a, b, c).

    Runs on sparse operators (``ops`` = ``_basis_operators(h)``) and composes
    none.  For each (a, b) one accumulator, keyed (c·d + x)·d + r, holds the
    coefficient of b_r in column x of the left side minus the right side for
    every c at once: the left side runs the columns of ρ(g_c#1) through
    λ(b_a#p_b); the right side, linear in b_a↼S(g_u) = Σ x·b_t, runs the
    terms (u, w, m) of Δ(g_c), the nonempty columns of λ(b_t#p_b), then ρ(g_w#1).
    """
    dual, d, field = h.dual(), h.dim, h.algebra.field
    lam, rho = ops
    unit = h.algebra.unit
    # ρ(g_c#1) by column, as (row, scalar) pairs, and its nonempty columns
    rho_g = [[tuple(_lincomb(field, ((u, rho[c][i][x]) for i, u in unit.items())).items())
              for x in range(d)] for c in range(d)]
    rho_cols = [[(x, col) for x, col in enumerate(op) if col] for op in rho_g]
    # the nonempty columns of λ(b_t#p_b), at [b][t]
    lam_cols = [[[(x, col.items()) for x, col in enumerate(lam[t][b]) if col]
                 for t in range(d)] for b in range(d)]
    # b_a ↼ S(p_u), at [a][u]
    twisted = [[v.items() for v in row] for row in _hit_by(h, dual.antipode)]

    def fill(acc, ab):
        a, b = ab
        get = acc.get
        op, tw, cols = lam[a][b], twisted[a], lam_cols[b]
        for c in range(d):
            for x, col in rho_cols[c]:
                _image(op, col, acc, (c * d + x) * d)
            for u, w, m in dual.comul[c]:
                for t, xt in tw[u]:
                    for x, col in cols[t]:
                        base = (c * d + x) * d
                        for s, y in col:
                            my = m * xt * y
                            for r, v in rho_g[w][s]:
                                acc[base + r] = get(base + r, 0) - my * v

    fail = next(_residues(field, [(a, b) for a in range(d) for b in range(d)], fill, d * d),
                None)
    if fail:
        raise InternalCheckFailed("exchange identity fails at basis ({},{},{})".format(
            *fail[0], fail[1]))


# -- partial Hopf actions -------------------------------------------------

class PartialHopfAction:
    __slots__ = ("hopf", "algebra", "acts")

    def __init__(self, hopf, algebra, acts):
        self.hopf = hopf
        self.algebra = algebra
        self.acts = acts    # acts[i][x]: b_i ▷ a_x as {index: scalar}


def make_partial_hopf_action(h, algebra, acts):
    """Validate one action per basis vector b_i of H, given by its sparse
    columns ``acts[i][x]`` = b_i ▷ a_x as ``{row: scalar}`` and read in the
    algebra's field; H and the algebra must share one field (FieldMismatch)."""
    field = algebra.field
    if h.algebra.field != field:
        raise FieldMismatch(h.algebra.field, field)
    if len(acts) != h.dim:
        raise ValidationError("need one action per Hopf basis element")
    return _checked_hopf_action(h, algebra, [_sparse_columns(field, cols, algebra.dim,
                                                             algebra.dim) for cols in acts])


def _checked_hopf_action(h, algebra, acts):
    """The partial Hopf action with sparse columns ``acts[i][x]`` = b_i ▷ a_x,
    once the three weakened action axioms hold on all basis tuples.

    Axioms 1 and 3 share one walk: per b_i one accumulator, keyed
    (p·dA + q)·dA + t, holds b_i ▷ Σ c·a_t over the terms of ``left[p][q]``
    minus Σ v·``first[k][p]``·``second[l][p][q]`` over the terms (k, l, v)
    of Δ(b_i), for every (p, q) at once: (a_x, a_y) for axiom 1 and
    (b_j, a_x) for axiom 3.
    """
    d, da = h.dim, algebra.dim
    field = algebra.field
    mul = algebra._mul_acc
    ha, aa = h.algebra.labels, algebra.labels

    def residue(left, first, second):
        def fill(acc, i):
            for p, row in enumerate(left):
                for q, terms in enumerate(row):
                    base = (p * da + q) * da
                    _image(acts[i], terms, acc, base)
                    for k, l, v in h.comul[i]:
                        _add(acc, base, -v, mul(first[k][p], second[l][p][q]).items())
        return next(_residues(field, range(d), fill, da, da), None)

    # h ▷ (xy) = Σ (h1 ▷ x)(h2 ▷ y)
    fail = residue([[row.get(y, ()) for y in range(da)] for row in algebra.products],
                   acts, [[col] * da for col in acts])
    if fail:
        raise Axiom1Fails(ha[fail[0]], aa[fail[1]], aa[fail[2]])

    # 1_H ▷ a_x = a_x
    h_unit = h.algebra.unit.items()
    x = next((x for x in range(da) if _lincomb(field, ((c, acts[i][x]) for i, c in h_unit))
              != {x: field.one}), None)
    if x is not None:
        raise Axiom2Fails(f"on basis {aa[x]}")

    # h ▷ (k ▷ x) = Σ (h1 ▷ 1)((h2 k) ▷ x), with (b_l b_j) ▷ a_x formed once
    unit = algebra.unit
    unit_acts = [_on_leg(field, acts[k], da, unit) for k in range(d)]
    hrows = h.algebra.products
    lj_acts = [[[_lincomb(field, ((c, acts[t][x]) for t, c in hrows[l].get(j, ())))
                 for x in range(da)] for j in range(d)] for l in range(d)]
    fail = residue([[col.items() for col in row] for row in acts],
                   [[u] * d for u in unit_acts], lj_acts)
    if fail:
        raise Axiom3Fails(ha[fail[0]], ha[fail[1]], aa[fail[2]])
    return PartialHopfAction(h, algebra, acts)


def lift_group_action(pa):
    """Linearize a partial group action over the group Hopf algebra: b_g ▷ = α_g."""
    h = group_hopf(pa.algebra.field, pa.group)
    return _checked_hopf_action(h, pa.algebra, pa.columns)


def coaction_report(pha):
    """The induced map δ(a) = Σ (b_i·a)⊗p_i and its three properties.

    A failing weak coassociativity names its first basis element, and also
    the first basis where the strict law, which is only measured, fails.
    The report expects ``pha`` made by ``make_partial_hopf_action`` and
    states two of its proofs.  Axiom 1, b_i ▷ (xy) = Σ (b_k ▷ x)(b_l ▷ y)
    over Δ(b_i), is δ(xy) = δ(x)δ(y), since p_k·p_l = Σ_i v·p_i over the
    terms (k, l, v) of Δ(b_i): ``coaction.multiplicative`` states it.
    Axiom 2, 1_H ▷ a = a, is the counit law (1⊗ε)δ(a) = a:
    ``coaction.counit`` states it.
    """
    h, alg = pha.hopf, pha.algebra
    dual = h.dual()
    d, da = h.dim, alg.dim
    field = alg.field
    acts = pha.acts

    # δ(a_x) in A ⊗ H*, index a·d + i, and the table of δ ⊗ 1 on a⊗p_j
    cols = [{a * d + i: c for i in range(d) for a, c in acts[i][x].items()}
            for x in range(da)]
    wide = [{k * d + j: c for k, c in col.items()} for col in cols for j in range(d)]

    # weakened coassociativity in A ⊗ H* ⊗ H*, index (a·d + i)·d + j:
    # (δ⊗1)δ = (δ(1)⊗1)·(1⊗Δ)δ
    t3 = tensor_algebra(alg, tensor_algebra(dual.algebra, dual.algebra))
    delta_unit = _on_leg(field, cols, da * d, alg.unit)
    left_factor = _on_leg(field, [dual.algebra.unit], d, delta_unit)
    lhs = [_on_leg(field, wide, da * d * d, col) for col in cols]
    spread = [_on_leg(field, dual.coproduct, d * d, col) for col in cols]
    weak = next((x for x in range(da) if lhs[x] != t3.mul(left_factor, spread[x])), None)
    strict = next((x for x in range(da) if lhs[x] != spread[x]), None)
    coassoc_witnesses = [f"{kind} coassociativity fails on basis {alg.labels[x]}"
                         for kind, x in (("weak", weak), ("strict", strict)) if x is not None]

    return [
        check("coaction.multiplicative", {"pairs": da * da}),
        check("coaction.counit", {"basis": da}),
        # the one check that may pass naming a witness: the strict law's
        # failure, which is only measured (passing reports carry its text)
        CheckResult("coaction.weak_coassociativity", PASS if weak is None else FAIL,
                    {"strict_coassociativity": strict is None}, coassoc_witnesses),
    ]


def build_corner_maps(pha, lam):
    """φ(a) = Σ (b_i·a) ⊗ ρ(S^{-1}(p_i)#1) and ψ(h#f) = 1⊗λ(h#f), ``lam``
    being λ, on sparse vectors of A⊗End(H).  Returns φ, an ``AlgebraMap``
    proved multiplicative, and the images ψ(b_i#p_j) at i·d + j, once the
    exchange lemma φ(1)ψ(h#f)φ(a) = Σ φ(h1·a)ψ(h2#f) holds on every basis
    triple: per a_a, for every (b_i, p_j) at once, with the left side formed
    as (φ(1)ψ(b_i#p_j))·φ(a), the target being associative.
    """
    h, alg, acts = pha.hopf, pha.algebra, pha.acts
    d, da, dd = h.dim, alg.dim, h.dim * h.dim
    field = alg.field
    target = tensor_algebra(alg, lam.codomain)

    # ρ(S^{-1}(p_i)#1): x ↦ x ↼ S^{-1}(p_i), as a sparse vector of End(H)
    rho_sinv = [_end_vec(op) for op in zip(*_hit_by(h, h.dual().antipode_inv))]

    # φ(a_x), index a·d² + e: p_i ↦ ρ(S^{-1}(p_i)#1) on δ(a_x)
    phi_cols = [_on_leg(field, rho_sinv, dd, {a * d + i: c for i in range(d)
                                              for a, c in acts[i][x].items()})
                for x in range(da)]
    phi = AlgebraMap(alg, target, phi_cols)
    if not phi.is_multiplicative():
        raise InternalCheckFailed("corner map on the algebra is not multiplicative")

    # ψ(b_i#p_j) = 1⊗λ(b_i#p_j), from the sparse columns of λ
    one_a = alg.unit
    psi = [_on_leg(field, [col], dd, one_a) for col in lam.columns]

    # exchange lemma
    mul, dim = target._mul_acc, target.dim
    unit = phi.apply(one_a)
    unit_psi = [field.sparse(mul(unit, p)) for p in psi]

    def lemma(acc, a):
        # φ(b_k·a) for every basis b_k of H
        phi_ka = [phi.apply(acts[k][a]) for k in range(d)]
        for i in range(d):
            for j in range(d):
                base = (i * d + j) * dim
                _add(acc, base, 1, mul(unit_psi[i * d + j], phi_cols[a]).items())
                for k, l, v in h.comul[i]:
                    _add(acc, base, -v, mul(phi_ka[k], psi[l * d + j]).items())

    fail = next(_residues(field, range(da), lemma, dim, d), None)
    if fail:
        raise InternalCheckFailed("corner exchange lemma fails at (a={}, h={}, f={})"
                                  .format(*fail))
    return phi, psi


# -- partial smash product ------------------------------------------------

class PartialSmash:
    __slots__ = ("pha", "ambient", "sub", "unit_vec", "unit_multiples")

    def __init__(self, pha, ambient, sub, unit_vec, unit_multiples):
        self.pha = pha
        self.ambient = ambient   # A⊗H with the twisted product (no global unit)
        self.sub = sub           # the unital corner (A⊗H)·1
        self.unit_vec = unit_vec   # 1_A ⊗ 1_H, sparse
        self.unit_multiples = unit_multiples   # {x·d + i: (x#b_i)·1}


def build_partial_smash(pha):
    """The twisted product on A⊗H and its unital corner, spanned by the
    multiples (x#b_i)·1 of the unit, which the report reads again."""
    h, alg = pha.hopf, pha.algebra
    ambient = smash_algebra(alg, h.algebra, h.comul, pha.acts, None)
    unit = _pure_tensor(alg.field, alg.unit, h.algebra.unit, h.dim)
    by_unit = ambient.multiples(unit)
    sub = Subspace.span(alg.field, ambient.dim, by_unit.values())
    return PartialSmash(pha, ambient, sub, unit, by_unit)


def partial_smash_report(ps):
    """Closure, unitality, the comodule-algebra structure over H (via
    ρ = 1 ⊗ Δ) and the module-algebra structure over the dual (via
    1 ⊗ (p_m ⇀ ·)) of the unital corner, on sparse vectors.

    The corner basis vectors u_a, their products and their images p_m ⇀ u_a
    are formed once.  A failing check names its first witness: a corner
    basis vector by its expansion, p_m by its dual label, x#b_i by its
    ambient label, and for ``psmash.unital`` the first way the unit fails.
    ``multiplicative`` holds ρ(u_a u_b) − ρ(u_a)ρ(u_b) for every b per u_a;
    ``module_law`` holds p_m ⇀ (u_a u_b) − Σ w·(p_k ⇀ u_a)(p_l ⇀ u_b) over
    Δ(p_m) for every (a, b) per p_m.  ``counit`` and ``unit_acts`` are the
    counit law (1⊗ε)Δ = 1, and ``coassociative`` is coassociativity of Δ on
    the last leg, which ``make_hopf`` proved: all three are stated.
    """
    h, alg = ps.pha.hopf, ps.pha.algebra
    d, dual = h.dim, h.dual()
    amb, sub = ps.ambient, ps.sub
    field = amb.field
    mul = amb.mul
    su = sub.basis
    n = len(su)
    uv = [[mul(u, v) for v in su] for u in su]
    corner, ms = range(n), range(d)
    p = dual.algebra.labels

    def vec(a):
        return amb.format_vec(su[a])

    leaves = next(((a, b) for a in corner for b in corner if uv[a][b] not in sub), None)
    unit = ps.unit_vec
    if unit not in sub:
        unital = "the unit lies outside the corner"
    elif mul(unit, unit) != unit:
        unital = "the unit is not idempotent"
    else:
        unital = next((f"{side} unit law fails at ({vec(a)})" for a, u in enumerate(su)
                       for side, prod in (("left", mul(unit, u)), ("right", mul(u, unit)))
                       if prod != u), None)

    # right comodule algebra via ρ = 1 ⊗ coproduct
    t = tensor_algebra(amb, h.algebra)
    co = [_on_leg(field, h.coproduct, d * d, u) for u in su]

    def multiplicative(acc, a):
        for b in corner:
            _image(h.coproduct, uv[a][b].items(), acc, b * t.dim, width=d * d)
            _add(acc, b * t.dim, -1, t._mul_acc(co[a], co[b]).items())

    # left module algebra over the dual via 1 ⊗ (p_m ⇀ ·)
    hits, rows = h.left_hits, amb.products
    acted = [[_on_leg(field, hits[m], d, u) for u in su] for m in ms]

    def module_law(acc, m):
        # p_m ⇀ (uv) = Σ over (k, l, w) in Δ(p_m) of w·(p_k ⇀ u)(p_l ⇀ v)
        get, dim = acc.get, amb.dim
        for a in corner:
            for b in corner:
                _image(hits[m], uv[a][b].items(), acc, (a * n + b) * dim, width=d)
        for k, l, w in dual.comul[m]:
            for a in corner:
                for r, x in acted[k][a].items():
                    cell_at = rows[r].get
                    for b in corner:
                        base = (a * n + b) * dim
                        for s, y in acted[l][b].items():
                            c = w * x * y
                            for i, v in cell_at(s, ()):
                                acc[base + i] = get(base + i, 0) - c * v

    pair = next(_residues(field, corner, multiplicative, t.dim), None)
    law = next(_residues(field, ms, module_law, amb.dim, n), None)
    by_unit = ps.unit_multiples
    return [
        check("psmash.closed", {"sub_dim": sub.dim}, None if leaves is None else
              f"product leaves the corner at ({vec(leaves[0])}, {vec(leaves[1])})"),
        check("psmash.unital", {}, unital),
        _named_failures_check("psmash.comodule_algebra", {
            "multiplicative": pair and f"{vec(pair[0])}, {vec(pair[1])}",
            "counit": None, "coassociative": None}),
        _named_failures_check("psmash.dual_module_algebra", {
            "stable": next((f"{p[m]}, {vec(a)}" for m in ms for a in corner
                            if acted[m][a] not in sub), None),
            "unit_acts": None,
            "module_law": law and f"{p[law[0]]}, {vec(law[1])}, {vec(law[2])}",
            # p_m ⇀ ((x#b_i)·1) = (x#(p_m ⇀ b_i))·1
            "closed_form": next((f"{p[m]}, {amb.labels[x * d + i]}"
                                 for x in range(alg.dim) for i in ms for m in ms
                                 if _on_leg(field, hits[m], d, by_unit.get(x * d + i, {}))
                                 != _lincomb(field, ((v, by_unit.get(x * d + b, {}))
                                                     for b, v in hits[m][i].items()))),
                                None)}),
    ]


def _named_failures_check(name, failures):
    """A check over named sub-checks; ``failures`` maps each sub-check to
    the description of its first witness, or None when it holds."""
    return check(name, {sub: where is None for sub, where in failures.items()},
                 *(None if where is None else f"{sub} fails at ({where})"
                   for sub, where in failures.items()))


def smash_matches_skew_report(ps, skew_ring):
    """For group lifts: the unital corner is the twisted group ring, via
    T(x#b_g) = x·1_g placed at grade g, on sparse vectors.  A failure names
    the first way T fails: the dimensions when it is not bijective, the first
    corner basis pair it does not multiply (by expansion), or the unit."""
    alg, d = ps.pha.algebra, ps.pha.hopf.dim
    field, ring = alg.field, skew_ring.algebra

    # T(x#b_g), index x·d + g, as a sparse vector of the twisted ring
    times = [alg.multiples(e) for e in skew_ring.action.idempotents]   # {x: b_x·1_g}
    t_map = AlgebraMap(ps.ambient, ring, [
        skew_ring.inject(g, times[g].get(x, {}))
        for x in range(alg.dim) for g in range(d)]).apply
    su = ps.sub.basis
    images = [t_map(u) for u in su]
    span = Subspace.span(field, skew_ring.dim, images)
    bijective = ps.sub.dim == skew_ring.dim == span.dim
    mul = ps.ambient.mul
    pair = next(((a, b) for a, u in enumerate(su) for b, v in enumerate(su)
                 if t_map(mul(u, v)) != ring.mul(images[a], images[b])), None)
    unital = t_map(ps.unit_vec) == ring.unit

    vec = ps.ambient.format_vec
    if not bijective:
        failure = (f"not bijective: corner dim {ps.sub.dim}, image dim {span.dim}, "
                   f"twisted ring dim {skew_ring.dim}")
    elif pair is not None:
        failure = (f"multiplicativity fails at ({vec(su[pair[0]])}, {vec(su[pair[1]])})")
    else:
        failure = None if unital else "the unit does not map to the unit"
    return [check("psmash.matches_skew_ring",
                  {"sub_dim": ps.sub.dim, "skew_dim": skew_ring.dim,
                   "bijective": bijective, "multiplicative": pair is None,
                   "unital": unital}, failure)]


def operator_duality_report(pha, ps, maps):
    """The operator duality map Φ(x#f) = φ(x)ψ(f) on A⊗H#H^*:
    multiplicativity, the corner idempotent, and corner membership of the
    restricted domain.  The report expects ``maps`` = (φ, ψ columns) made by
    ``build_corner_maps`` from λ made by ``build_representations``, which
    proved φ multiplicative and λ unital: Φ(1) = φ(1)ψ(1#1) = φ(1) = e = e·e,
    so ``opduality.idempotent`` states it and measures the Pierce corner of e.
    """
    h, alg, field = pha.hopf, pha.algebra, pha.algebra.field
    dual = h.dual()
    d = h.dim
    phi, psi_columns = maps
    target = phi.codomain

    acted = [[_on_leg(field, h.left_hits[m], d, {y: field.one})
              for y in range(ps.ambient.dim)] for m in range(d)]
    triple = smash_algebra(ps.ambient, dual.algebra, dual.comul, acted, None)

    # φ(x#b_i#p_j) = φ(x)·ψ(b_i#p_j), index (x·d + i)·d + j
    mul = target.mul
    cols = [mul(phi_x, psi) for phi_x in phi.columns for psi in psi_columns]
    pair = AlgebraMap(triple, target, cols)._multiplicativity_witness()

    corner = _pierce_corner(target, phi.apply(alg.unit))
    # the first restricted generator s#p_j whose image leaves the corner
    subs = ps.sub.basis
    outside = next(((a, j) for a, s in enumerate(subs) for j in range(d)
                    if _lincomb(field, ((c, cols[idx * d + j]) for idx, c in s.items()))
                    not in corner), None)

    return [
        check("opduality.multiplicative", {"dim": triple.dim}, None if pair is None else
              f"({triple.labels[pair[0]]}, {triple.labels[pair[1]]})"),
        check("opduality.idempotent", {"corner_dim": corner.dim}),
        check("opduality.corner_membership", {"restricted_basis": len(subs) * d},
              None if outside is None else
              f"corner membership fails at ({ps.ambient.format_vec(subs[outside[0]])}, "
              f"{dual.algebra.labels[outside[1]]})"),
    ]


# -- suite orchestration ---------------------------------------------------

def hopf_data_checks(h):
    """The hopf.axioms, hopf.dual_axioms and hopf.operator_reps checks of a
    validated Hopf algebra, and λ from ``build_representations``.  A refusal
    of the dual's or λ's builder is raised, for the suite runner to report.
    ``make_hopf`` inverted S (else it raises ``AntipodeNotInvertible``), so
    ``antipode_rank`` states dim H.  The double dual's tables are transposed
    from the dual's (its product validated by ``make_algebra``) and compared
    with H part by part; equal to H, whose axioms ``make_hopf`` or
    ``group_hopf`` proved, it satisfies them, so they are not proved again.
    """
    dual = h.dual()
    double, comul, counit, antipode = _transposed(dual)
    differs = next((part for part, a, b in (
        ("products", double.products, h.algebra.products),
        ("comultiplication", comul, h.comul),
        ("counit", counit, h.counit),
        ("antipode", antipode, h.antipode)) if a != b), None)
    lam = build_representations(h)
    return [check("hopf.axioms", {"dim": h.dim, "antipode_rank": h.dim}),
            check("hopf.dual_axioms", {"dual_dim": dual.dim},
                  None if differs is None else f"double dual differs in {differs}"),
            check("hopf.operator_reps", {"end_dim": h.dim * h.dim})], lam


def hopf_lift_suite(pa, skew_ring):
    """Everything the Hopf layer asserts about the lift of a group action.
    ``lift_group_action`` makes the lift from α's own columns, b_g ▷ a_x =
    α_g(a_x), so ``hopf.lift_matches_group_dot`` states it.
    ``build_corner_maps`` proved φ multiplicative, so its corner unit φ(1) is
    idempotent: ``hopf.corner_maps`` states it for the maps that builder made.
    """
    pha = lift_group_action(pa)
    h = pha.hopf
    results, lam = hopf_data_checks(h)
    coaction = coaction_report(pha)
    maps = build_corner_maps(pha, lam)
    ps = build_partial_smash(pha)
    return [*results,
            check("hopf.partial_action_axioms",
                  {"hopf_dim": h.dim, "algebra_dim": pha.algebra.dim}),
            check("hopf.lift_matches_group_dot"),
            *coaction,
            check("hopf.corner_maps",
                  {"target_dim": maps[0].codomain.dim, "corner_unit_idempotent": True}),
            check("psmash.associative",
                  {"ambient_dim": ps.ambient.dim, "sub_dim": ps.sub.dim}),
            *partial_smash_report(ps),
            *smash_matches_skew_report(ps, skew_ring),
            *operator_duality_report(pha, ps, maps)]
