"""The ``lemma1`` suite: the evaluation identities of the dot calculus,
checked exhaustively on the basis of a validated partial action.

These identities are the lemma every later formula of the duality rests
on: each g-map is multiplicative, g·(h·a) = ((gh)·a)1_g,
(g·a)b = g·(a(g^{-1}·b)), g·1 = 1_g, g·(g^{-1}·a) = a·1_g, and the kernel
of the g-map is A(1-1_{g^{-1}}).  Only the ``lemma1`` suite reads them, so
the dispatcher imports this module in that branch, and a run without the
suite never compiles it.

Each identity sums lhs − rhs in one accumulator per outer index, keyed
inner·d + t: per (g, i) for ``multiplicative`` and ``pull_through``, per
(g, h) for ``composition``, per g for ``round_trip``.  Each is reduced
once; its failing inner indices, in order, are the failing tuples of a
per-tuple loop, so the witnesses are those of that loop.  The tables
b_r·1_g and b_i·α_{g⁻¹}(b_j) are ``StructureAlgebra.multiples``.
"""

from __future__ import annotations

from .actions import _image
from .algebras import AlgebraMap, _add
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
    sparse, mul = alg.field.sparse, alg._mul_acc
    by_row, labels, cols = alg.nonempty_cells[0], alg.labels, pa.columns
    # b_r·1_g for every (g, r), an empty dict where it is zero
    right = [[m.get(r, {}) for r in range(d)] for m in map(alg.multiples, pa.idempotents)]
    results = []

    bad = []
    for g, cg in enumerate(cols):
        nonzero = [(j * d, col) for j, col in enumerate(cg) if col]
        for i in range(d):
            acc = {}
            for j, cell in by_row[i]:                    # α_g(b_i b_j)
                _image(cg, cell, acc, j * d)
            for base, col in nonzero:                    # − α_g(b_i)α_g(b_j)
                _add(acc, base, -1, mul(cg[i], col).items())
            bad += [f"g={grp.label(g)} on ({labels[i]}, {labels[j]})"
                    for j in sorted({k // d for k in sparse(acc)})]
    results.append(check("lemma1.multiplicative", {"pairs": n * d * d}, *bad[:3]))

    bad = []
    for g in range(n):
        for h in range(n):
            gh, acc = grp.mul(g, h), {}
            for i in range(d):
                _image(cols[g], cols[h][i].items(), acc, i * d)    # α_g(α_h(b_i))
                _image(right[g], cols[gh][i].items(), acc, i * d, -1)  # − α_gh(b_i)·1_g
            bad += [f"g={grp.label(g)} h={grp.label(h)} a={labels[i]}"
                    for i in sorted({k // d for k in sparse(acc)})]
    results.append(check("lemma1.composition", {"triples": n * n * d}, *bad[:3]))

    bad = []
    for g in range(n):
        cg = cols[g]
        times = [alg.multiples(col) for col in cols[grp.inv(g)]]   # [j][i]: b_i·α_{g⁻¹}(b_j)
        for i in range(d):
            acc = {}
            for r, x in cg[i].items():                   # α_g(b_i)·b_j
                for j, cell in by_row[r]:
                    _add(acc, j * d, x, cell)
            for j, t in enumerate(times):                # − α_g(b_i·α_{g⁻¹}(b_j))
                _image(cg, t.get(i, {}).items(), acc, j * d, -1)
            bad += [f"g={grp.label(g)} on ({labels[i]}, {labels[j]})"
                    for j in sorted({k // d for k in sparse(acc)})]
    results.append(check("lemma1.pull_through", {"pairs": n * d * d}, *bad[:3]))

    bad = [grp.label(g) for g in range(n)
           if sparse(_image(cols[g], alg.unit.items())) != pa.idempotents[g]]
    results.append(check("lemma1.unit_image", {"elements": n}, *bad))

    bad = []
    for g in range(n):
        cg, acc = cols[g], {}
        for i, col in enumerate(cols[grp.inv(g)]):
            _image(cg, col.items(), acc, i * d)           # α_g(α_{g⁻¹}(b_i))
            _add(acc, i * d, -1, right[g][i].items())    # − b_i·1_g
        bad += [f"g={grp.label(g)} a={labels[i]}"
                for i in sorted({k // d for k in sparse(acc)})]
    results.append(check("lemma1.round_trip", {"pairs": n * d}, *bad[:3]))

    # kernel of the g-map: the evaluation kills exactly A(1-1_{g^{-1}}),
    # the complement of its source ideal.  Whether the complement of the
    # target ideal A(1-1_g) happens to agree (it does whenever
    # 1_g = 1_{g^{-1}}) is recorded but not required.
    bad = []
    dims = []
    target_variant = True
    comps = [pa.complement_ideal(g) for g in range(n)]
    for g in range(n):
        ker = AlgebraMap(alg, alg, cols[g]).kernel()
        comp = comps[grp.inv(g)]
        dims.append(ker.dim)
        if ker != comp:
            bad.append(f"g={grp.label(g)}: kernel dim {ker.dim} vs ideal dim {comp.dim}")
        if ker != comps[g]:
            target_variant = False
    results.append(check("lemma1.kernel_ideal",
                         {"kernel_dims": dims,
                          "target_idempotent_variant": target_variant}, *bad))
    return results
