"""Dense matrix arithmetic, kept as the reference the tests compare against.

The library keeps every vector as a sparse ``{index: scalar}`` dict and
every linear map as its sparse columns ``{row: scalar}``.  These plain
functions compute on dense rows (lists of scalars) instead, so a sparse
result compared with them comes by an independent route: the product of
two matrices, a matrix times a vector, and the inverse and the kernel by
dense Gauss–Jordan elimination.  Each output coefficient is reduced through the
field.  ``to_columns``/``to_rows`` and ``sparse``/``dense`` convert between
the two forms, and ``unit_vector``, ``multiply``, ``basis_of`` and
``span_of`` give the dense routes their vectors, products and subspaces.
``intersect`` is the Zassenhaus meet of two subspaces, by the same dense
elimination; the library itself reads dim(U ∩ W) off the sum U + W.
``first_nonmultiplicative_pair`` tests a linear map between algebras one
basis pair at a time, on dense vectors.
"""

from fractions import Fraction

from partialskew.linalg import Subspace


def sparse(vec):
    """The nonzero entries of a dense vector as ``{index: scalar}``."""
    return {i: x for i, x in enumerate(vec) if x}


def dense(x, n):
    """The sparse vector ``x`` as a dense tuple of length n."""
    return tuple(x.get(i, 0) for i in range(n))


def to_columns(rows):
    """The sparse columns ``{row: scalar}`` of a row-major matrix."""
    return [sparse(col) for col in zip(*rows)]


def to_rows(columns, n):
    """The n dense rows of the matrix with sparse ``columns``."""
    return [[col.get(r, 0) for col in columns] for r in range(n)]


def unit_vector(d, i):
    """The i-th basis vector of k^d as a dense tuple."""
    return tuple(int(j == i) for j in range(d))


def multiply(alg, x, y):
    """The product of two dense vectors of the algebra alg, dense."""
    return dense(alg.mul(sparse(x), sparse(y)), alg.dim)


def basis_of(space):
    """The echelon basis of a subspace as dense tuples."""
    return [dense(r, space.ambient) for r in space.basis]


def span_of(field, d, vectors):
    """The subspace of k^d spanned by dense vectors."""
    return Subspace.span(field, d, [sparse(v) for v in vectors])


def identity(n):
    """The sparse columns of the n×n identity."""
    return [{j: 1} for j in range(n)]


def matmul(field, a, b):
    """The product a·b of two matrices given by dense rows."""
    reduce = field.reduce
    return [[reduce(sum(x * y for x, y in zip(row, col))) for col in zip(*b)] for row in a]


def apply(field, m, vec):
    """The matrix m, by dense rows, times the coordinate column ``vec``."""
    assert all(len(row) == len(vec) for row in m)
    return tuple(field.reduce(sum(x * y for x, y in zip(row, vec))) for row in m)


def _gauss_jordan(field, rows):
    """Reduce the dense rows (lists) in place to reduced row echelon form;
    returns the pivot columns, row k holding the pivot of the k-th."""
    p, reduce = field.characteristic, field.reduce
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        k = len(pivots)
        r = next((r for r in range(k, len(rows)) if rows[r][c]), None)
        if r is None:
            continue
        rows[k], rows[r] = rows[r], rows[k]
        inv = pow(rows[k][c], -1, p) if p else Fraction(1, rows[k][c])
        rows[k] = [reduce(x * inv) for x in rows[k]]
        for i, row in enumerate(rows):
            f = row[c]
            if i != k and f:
                rows[i] = [reduce(x - f * y) for x, y in zip(row, rows[k])]
        pivots.append(c)
    return pivots


def inverse(field, m):
    """The inverse of a square matrix by dense rows, from the dense rows
    [m | I], or None when m is singular."""
    n = len(m)
    rows = [[field.reduce(x) for x in row] + [int(j == i) for j in range(n)]
            for i, row in enumerate(m)]
    if _gauss_jordan(field, rows) != list(range(n)):
        return None
    return [row[n:] for row in rows]



def intersect(u, w):
    """U ∩ W by Zassenhaus: of the dense reduced rows of [[u, u], [w, 0]],
    u and w over the echelon bases of U and W, those whose pivot lies in
    the right half vanish on the left half, and their right halves span
    U ∩ W."""
    n = u.ambient
    rows = [list(x) * 2 for x in basis_of(u)] + [list(x) + [0] * n for x in basis_of(w)]
    pivots = _gauss_jordan(u.field, rows)
    return Subspace.span(u.field, n, [sparse(row[n:]) for row, c in zip(rows, pivots)
                                      if c >= n])


def kernel(field, m):
    """The solution space of m·x = 0, m by dense rows, spanned by one
    vector per free column of the dense reduced rows."""
    rows = [[field.reduce(x) for x in row] for row in m]
    pivots = _gauss_jordan(field, rows)
    vectors = []
    for f in (c for c in range(len(m[0])) if c not in pivots):
        v = {f: field.one}
        for k, c in enumerate(pivots):
            v[c] = field.reduce(-rows[k][f])
        vectors.append(v)
    return Subspace.span(field, len(m[0]), vectors)


def dense_product(alg, x, y):
    """x·y for dense vectors x and y of the algebra alg, summed over every
    pair of coordinates (r, s) against the cell b_r·b_s of its table."""
    out = [0] * alg.dim
    for r, xr in enumerate(x):
        for s, ys in enumerate(y):
            for t, v in alg.products[r].get(s, ()):
                out[t] += xr * ys * v
    return tuple(map(alg.field.reduce, out))


def first_nonmultiplicative_pair(domain, codomain, columns, anti=False):
    """The first basis pair (i, j), in lexicographic order, at which the
    linear map with sparse ``columns`` sends b_i·b_j to something other
    than φ(b_i)φ(b_j), or φ(b_j)φ(b_i) when ``anti``; None when there is
    none.  Each pair is tested on its own, through the dense matrix of the
    map and ``dense_product``."""
    field, d = codomain.field, domain.dim
    m = to_rows(columns, codomain.dim)
    units = [unit_vector(d, i) for i in range(d)]
    images = [apply(field, m, u) for u in units]
    for i in range(d):
        for j in range(d):
            x, y = (images[j], images[i]) if anti else (images[i], images[j])
            if apply(field, m, dense_product(domain, units[i], units[j])) != \
                    dense_product(codomain, x, y):
                return i, j
    return None
