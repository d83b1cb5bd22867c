"""Smash product of the twisted group ring with the dual group algebra.

A basis vector is a pair (skew basis j, group element h), standing for
x # p_h with x the j-th homogeneous basis vector.  The ring structure is
assembled twice and compared: once generically from the projection action
p_h ▷ x = [grade(x) = h]·x together with the coproduct of the dual group
algebra (sum over factorizations of h), and once from the closed product
rule that multiplies the skew parts and keeps p_l exactly when the left
p-index matches grade(y)·l.  Any mismatch would mean a transcription error
in one of the two routes and aborts the build.
"""

from __future__ import annotations

from .algebras import AlgebraMap, dual_group_algebra, make_algebra
from .errors import InternalCheckFailed
from .report import check


class SmashAlgebra:
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

    def embed_skew(self):
        """The inclusion x |-> sum over h of x # p_h (verified at build)."""
        return self.embed_skew_map


def build_smash(skew):
    grp = skew.group
    field = skew.algebra.field
    n = grp.order
    ds = skew.dim
    dim = ds * n
    grades = [skew.grade_of(j)[0] for j in range(ds)]

    def index(j, h):
        return j * n + h

    # the projection action must be a module-algebra action before the
    # smash multiplication is meaningful
    products = skew.algebra.products
    for h in range(n):
        for j1 in range(ds):
            for j2 in range(ds):
                prod = products[j1][j2]
                lhs = tuple((k, c) for k, c in prod if grades[k] == h)
                rhs = ()
                for u in range(n):
                    v = grp.mul(grp.inv(u), h)
                    if grades[j1] == u and grades[j2] == v:
                        rhs = prod
                        break
                if lhs != rhs:
                    raise InternalCheckFailed(
                        "projection action is not a module-algebra action")

    dual = dual_group_algebra(field, grp)
    sparse = field.sparse
    rows = []
    for j1 in range(ds):
        for h in range(n):
            row_for = {}
            for j2 in range(ds):
                prod = products[j1][j2]
                for l in range(n):
                    # generic route: split p_h over factorizations u·v = h,
                    # apply p_u to the right factor, multiply p_v * p_l in
                    # the dual group algebra
                    generic = {}
                    for u in range(n):
                        if grades[j2] != u:      # p_u kills other grades
                            continue
                        v = grp.mul(grp.inv(u), h)
                        for k, c in prod:
                            for m, w in dual.products[v][l]:
                                key = index(k, m)
                                generic[key] = generic.get(key, 0) + c * w
                    generic = sparse(generic)
                    # closed rule: keep p_l exactly when h = grade(y)·l
                    closed = {}
                    if grp.mul(grades[j2], l) == h:
                        closed = {index(k, l): c for k, c in prod}
                    if generic != closed:
                        raise InternalCheckFailed(
                            "generic and closed smash products disagree")
                    row_for[index(j2, l)] = tuple(generic.items())
            rows.append([row_for[c] for c in range(dim)])

    zero_row = [field.zero] * dim
    unit = list(zero_row)
    skew_unit = skew.algebra.unit
    for j, c in enumerate(skew_unit):
        if c:
            for h in range(n):
                unit[index(j, h)] = c

    labels = [f"{skew.algebra.labels[j]} # p_{grp.label(h)}"
              for j in range(ds) for h in range(n)]
    alg = make_algebra(field, rows, unit, labels=labels)

    embed_cols = []
    for j in range(ds):
        col = list(zero_row)
        for h in range(n):
            col[index(j, h)] = field.one
        embed_cols.append(tuple(col))
    embed = AlgebraMap.from_columns(skew.algebra, alg, embed_cols)
    if not (embed.is_multiplicative() and embed.is_unital() and embed.is_injective()):
        raise InternalCheckFailed("twisted group ring does not embed in its smash product")

    return SmashAlgebra(alg, skew, embed)


def smash_report(smash):
    """Structural facts recorded for the report: dimension and embedding."""
    results = [
        check("smash.dimension",
              smash.dim == smash.skew.dim * smash.group.order,
              {"dim": smash.dim, "skew_dim": smash.skew.dim,
               "group_order": smash.group.order}),
        check("smash.skew_embedding",
              smash.embed_skew_map.is_multiplicative()
              and smash.embed_skew_map.is_unital()
              and smash.embed_skew_map.is_injective(),
              {"kernel_dim": smash.embed_skew_map.kernel().dim}),
    ]
    return results
