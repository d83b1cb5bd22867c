"""Builders for the standing examples and their deliberately broken variants."""

from partialskew.actions import (global_action, make_partial_action,
                                 restrict_global, trivial_from_split)
from partialskew.algebras import field_algebra, ideal_basis, product_of_fields
from partialskew.constructions import matrix_algebra
from partialskew.errors import (AxiomIFails, AxiomIIFails, AxiomIIIFails,
                                NotCentralIdempotent, NotIsoOnIdeal)
from partialskew.fields import QQ
from partialskew.groups import cyclic

from dense_oracle import apply, dense, identity, sparse, to_columns, to_rows


def place(mat, r, s, avec):
    """The sparse vector of a matrix algebra with the sparse base element
    avec in entry (r, s)."""
    return {mat.slot(r, s, i): v for i, v in avec.items()}


def map_matrix(m):
    """The dense rows of an ``AlgebraMap``, built from its sparse columns:
    the oracle that the dense tests compare against."""
    return to_rows(m.columns, m.codomain.dim)


def map_columns(m):
    """The columns of an ``AlgebraMap`` as dense tuples."""
    return [dense(col, m.codomain.dim) for col in m.columns]


def action_matrices(pa):
    """The dense rows of each α_g of a partial action, built from its
    sparse columns like ``map_matrix``: the dense view the tests read."""
    return [to_rows(cols, pa.algebra.dim) for cols in pa.columns]


def dense_restriction(pa, e):
    """The restriction of the global action ``pa`` to B·e, for the sparse
    idempotent e, by a dense route: σ_g(v) as the matrix of σ_g times v,
    e·σ_g(v) as a dense product over the structure constants, read off the
    echelon basis of B·e.  Returns the idempotents and the columns as sparse
    dicts, as ``restrict_global`` stores them."""
    alg, field = pa.algebra, pa.algebra.field
    d = alg.dim
    rows = dense_rows(alg.products)
    span = ideal_basis(alg, e)
    ev = dense(e, d)

    def times_e(v):
        out = [0] * d
        for i, x in enumerate(ev):
            for j, y in enumerate(v):
                for k, c in rows[i][j] if x and y else ():
                    out[k] += x * y * c
        return span.coordinates(sparse(map(field.reduce, out)))

    maps = action_matrices(pa)
    return ([times_e(apply(field, m, ev)) for m in maps],
            [[times_e(apply(field, m, dense(v, d))) for v in span.basis]
             for m in maps])


def dense_rows(products):
    """The product rows of ``StructureAlgebra.products`` as d-long lists of
    cells, ``()`` for an empty cell: the dense form the oracles read."""
    d = len(products)
    return [[row.get(j, ()) for j in range(d)] for row in products]


def mapping_rows(rows):
    """Dense rows of cells (d-long lists) in the form of
    ``StructureAlgebra.products``: ``{j: cell}`` over the nonempty cells,
    each cell a tuple."""
    return tuple({j: tuple(cell) for j, cell in enumerate(row) if cell} for row in rows)


def split_action():
    """The two-field split action of the order-2 group (scenario s1)."""
    k = product_of_fields(QQ, 1)
    return trivial_from_split(k, k, cyclic(2))


def global_swap_action():
    """The coordinate swap of the order-2 group on the split plane."""
    algebra = product_of_fields(QQ, 2)
    swap = to_columns([[0, 1], [1, 0]])
    return global_action(cyclic(2), algebra, [identity(2), swap])


def z3_restricted_action():
    """Order-3 rotation of three split coordinates, cut down to two of them."""
    algebra = product_of_fields(QQ, 3)
    shift = to_columns([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    shift2 = to_columns([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    parent = global_action(cyclic(3), algebra, [identity(3), shift, shift2])
    return restrict_global(parent, {0: 1, 1: 1})


def split_field2_z3_action():
    return trivial_from_split(product_of_fields(QQ, 2),
                              product_of_fields(QQ, 1), cyclic(3))


def split_m2_z2_action():
    return trivial_from_split(matrix_algebra(field_algebra(QQ), 2),
                              product_of_fields(QQ, 1), cyclic(2))


def corrupted_action_variants():
    """(name, thunk, expected error) triples; each thunk must raise."""
    variants = []

    def non_idempotent():
        algebra = product_of_fields(QQ, 2)
        proj = to_columns([[1, 0], [0, 0]])
        return make_partial_action(
            cyclic(2), algebra,
            [sparse([1, 1]), sparse([1, -1])],
            [identity(2), proj])
    variants.append(("non-idempotent marker", non_idempotent,
                     NotCentralIdempotent))

    def non_central():
        m2 = matrix_algebra(field_algebra(QQ), 2)
        # E00 + E01 squares to itself but does not commute with E00
        e = sparse([1, 1, 0, 0])
        keep = identity(4)
        return make_partial_action(cyclic(2), m2, [m2.unit, e],
                                   [keep, keep])
    variants.append(("non-central idempotent", non_central,
                     NotCentralIdempotent))

    def identity_map_wrong():
        algebra = product_of_fields(QQ, 2)
        swap = to_columns([[0, 1], [1, 0]])
        return make_partial_action(
            cyclic(2), algebra,
            [sparse([1, 1]), sparse([1, 1])],
            [swap, swap])
    variants.append(("identity component broken", identity_map_wrong,
                     AxiomIFails))

    def full_marker_with_projection():
        algebra = product_of_fields(QQ, 2)
        proj = to_columns([[1, 0], [0, 0]])
        return make_partial_action(
            cyclic(2), algebra,
            [sparse([1, 1]), sparse([1, 1])],
            [identity(2), proj])
    variants.append(("projection claimed bijective", full_marker_with_projection,
                     NotIsoOnIdeal))

    def intersection_mismatch():
        # markers (1,1,0) and (0,1,1) with maps that are fine ideal-wise but
        # send the overlap of the source ideals to the wrong intersection
        algebra = product_of_fields(QQ, 3)
        beta_g = to_columns([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        beta_g2 = to_columns([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        return make_partial_action(
            cyclic(3), algebra,
            [sparse([1, 1, 1]), sparse([1, 1, 0]), sparse([0, 1, 1])],
            [identity(3), beta_g, beta_g2])
    variants.append(("overlap image mismatch", intersection_mismatch,
                     AxiomIIFails))

    def composition_mismatch():
        # both non-identity maps rotate the first three split coordinates,
        # so the double map disagrees with the direct one
        algebra = product_of_fields(QQ, 4)
        cycle = to_columns([[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]])
        marker = sparse([1, 1, 1, 0])
        return make_partial_action(
            cyclic(3), algebra,
            [sparse([1, 1, 1, 1]), marker, marker],
            [identity(4), cycle, cycle])
    variants.append(("double map disagrees", composition_mismatch,
                     AxiomIIIFails))

    return variants
