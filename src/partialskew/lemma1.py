"""The ``lemma1`` suite: the evaluation identities of the dot calculus,
checked exhaustively on the basis of a validated partial action.

These identities are the lemma every later formula of the duality rests
on: each g-map is multiplicative, g·(h·a) = ((gh)·a)1_g,
(g·a)b = g·(a(g^{-1}·b)), g·1 = 1_g, g·(g^{-1}·a) = a·1_g, and the kernel
of the g-map is A(1-1_{g^{-1}}).  Only the ``lemma1`` suite reads them, so
the dispatcher imports this module in that branch, and a run without the
suite never compiles it.

Multiplicativity is read off the failing pairs of ``AlgebraMap(A, A,
α_g)``, one map per g, whose kernel is the kernel of the g-map.  The other
identities sum lhs − rhs in one accumulator per outer index, keyed
inner·d + t: per (g, h) for ``composition``, per (g, i) for
``pull_through``, per g for ``round_trip``.  All four run on the skeleton
of :mod:`algebras`, ``_residues``, which yields the failing tuples of a
per-tuple loop in its order; a check names the first three, and its walk
stops at the third.  The tables b_r·1_g and b_i·α_g(b_j) are
``StructureAlgebra.multiples``.
"""

from __future__ import annotations

from itertools import islice

from .algebras import AlgebraMap, _add, _image, _residues
from .report import check


def dot_identities_report(pa):
    """Exhaustive checks of the evaluation identities behind every later formula.

    Covers multiplicativity of each g-map, the twisted composition rule
    g·(h·a) = ((gh)·a)1_g, the pull-through rule (g·a)b = g·(a(g^{-1}·b)),
    the image of the unit, the round trip g·(g^{-1}·a) = a·1_g, and the
    kernel description {a : g·a = 0} = A(1-1_{g^{-1}}).
    """
    alg, grp = pa.algebra, pa.group
    d, n = alg.dim, grp.order
    field, label, labels, cols = alg.field, grp.label, alg.labels, pa.columns
    by_row = alg.nonempty_cells[0]
    maps = [AlgebraMap(alg, alg, cg) for cg in cols]
    # b_r·1_g for every (g, r), an empty dict where it is zero
    right = [[m.get(r, {}) for r in range(d)] for m in map(alg.multiples, pa.idempotents)]
    # [g][j]: {i: b_i·α_g(b_j)}
    times = [[alg.multiples(col) for col in cg] for cg in cols]
    results = [check("lemma1.multiplicative", {"pairs": n * d * d}, *islice((
        f"g={label(g)} on ({labels[i]}, {labels[j]})"
        for g, m in enumerate(maps) for i, j in m._multiplicativity_failures()), 3))]

    def composition(acc, pair):
        g, h = pair
        gh = grp.mul(g, h)
        for i in range(d):
            _image(cols[g], cols[h][i].items(), acc, i * d)        # α_g(α_h(b_i))
            _image(right[g], cols[gh][i].items(), acc, i * d, -1)  # − α_gh(b_i)·1_g

    pairs = [(g, h) for g in range(n) for h in range(n)]
    results.append(check("lemma1.composition", {"triples": n * n * d}, *islice((
        f"g={label(g)} h={label(h)} a={labels[i]}"
        for (g, h), i in _residues(field, pairs, composition, d)), 3)))

    def pull_through(acc, pair):
        g, i = pair
        for r, x in cols[g][i].items():                  # α_g(b_i)·b_j
            for j, cell in by_row[r]:
                _add(acc, j * d, x, cell)
        for j, t in enumerate(times[grp.inv(g)]):        # − α_g(b_i·α_{g⁻¹}(b_j))
            _image(cols[g], t.get(i, {}).items(), acc, j * d, -1)

    pairs = [(g, i) for g in range(n) for i in range(d)]
    results.append(check("lemma1.pull_through", {"pairs": n * d * d}, *islice((
        f"g={label(g)} on ({labels[i]}, {labels[j]})"
        for (g, i), j in _residues(field, pairs, pull_through, d)), 3)))

    bad = [label(g) for g in range(n) if maps[g].apply(alg.unit) != pa.idempotents[g]]
    results.append(check("lemma1.unit_image", {"elements": n}, *bad))

    def round_trip(acc, g):
        for i, col in enumerate(cols[grp.inv(g)]):
            _image(cols[g], col.items(), acc, i * d)     # α_g(α_{g⁻¹}(b_i))
            _add(acc, i * d, -1, right[g][i].items())    # − b_i·1_g

    results.append(check("lemma1.round_trip", {"pairs": n * d}, *islice((
        f"g={label(g)} a={labels[i]}" for g, i in _residues(field, range(n), round_trip, d)), 3)))

    # kernel of the g-map: the evaluation kills exactly A(1-1_{g^{-1}}),
    # the complement of its source ideal.  Whether the complement of the
    # target ideal A(1-1_g) happens to agree (it does whenever
    # 1_g = 1_{g^{-1}}) is recorded but not required.
    bad = []
    dims = []
    target_variant = True
    comps = [pa.complement_ideal(g) for g in range(n)]
    for g in range(n):
        ker = maps[g].kernel()
        comp = comps[grp.inv(g)]
        dims.append(ker.dim)
        if ker != comp:
            bad.append(f"g={label(g)}: kernel dim {ker.dim} vs ideal dim {comp.dim}")
        if ker != comps[g]:
            target_variant = False
    results.append(check("lemma1.kernel_ideal",
                         {"kernel_dims": dims,
                          "target_idempotent_variant": target_variant}, *bad))
    return results
