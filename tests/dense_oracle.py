"""Dense matrix arithmetic, kept as the reference the tests compare against.

The library keeps every linear map as sparse columns ``{row: scalar}``; a
``Mat`` only carries the dense entries a caller hands in.  These plain
functions compute on those entries row by row, so a sparse result compared
with them comes by an independent route: the product of two matrices, a
matrix times a vector, and the inverse and the kernel by dense Gauss–Jordan
elimination.  Each output coefficient is reduced through the field.
"""

from fractions import Fraction

from partialskew.linalg import Mat, Subspace


def matmul(a, b):
    """The product a·b of two ``Mat`` over one field."""
    assert a.field == b.field and a.cols == b.rows
    columns = list(zip(*b.entries))
    vector = a.field.vector
    return Mat(a.field, [vector(sum(x * y for x, y in zip(row, col)) for col in columns)
                         for row in a.entries])


def apply(m, vec):
    """The matrix m times the coordinate column ``vec``."""
    assert len(vec) == m.cols
    return m.field.vector(sum(x * y for x, y in zip(row, vec)) for row in m.entries)


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


def inverse(m):
    """The inverse of a square ``Mat`` from the dense rows [m | I], or None
    when m is singular."""
    field, n = m.field, m.rows
    rows = [list(row) + [field.one if j == i else field.zero for j in range(n)]
            for i, row in enumerate(m.entries)]
    if _gauss_jordan(field, rows) != list(range(n)):
        return None
    return Mat(field, [row[n:] for row in rows])


def kernel(m):
    """The solution space of m·x = 0, spanned by one vector per free column
    of the dense reduced rows."""
    field, rows = m.field, [list(row) for row in m.entries]
    pivots = _gauss_jordan(field, rows)
    vectors = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [field.zero] * m.cols
        v[f] = field.one
        for k, c in enumerate(pivots):
            v[c] = field.reduce(-rows[k][f])
        vectors.append(v)
    return Subspace.from_vectors(field, m.cols, vectors)
