"""Exact linear algebra: matrices, solving, kernels, images, subspaces.

Everything is computed over one of the exact fields from :mod:`fields`, so
rank, kernel and subspace equality are exact decisions, never numerical
estimates.  Subspaces are kept in reduced row echelon form, which makes the
echelon basis a canonical representative: two subspaces are equal iff their
stored bases are identical.

Scalars are the plain numbers of :mod:`fields`: over F_p canonical ``int``
residues in ``[0, p)``, over the rationals an ``int`` or a ``Fraction``.
Every vector and matrix a function here returns holds canonical scalars; the
arithmetic kernels (``vadd``, ``vsub``, ``vscale``, ``Mat.apply``,
``Mat @``, ``Subspace.linear_combination``) accept any ``int``
representative and reduce each output coefficient once.  The entries of a
``Mat``, the vectors of ``Subspace.from_vectors`` and the rows of ``rref``
go through the field's ``scalars`` on the way in, so over F_p any ``int``
representative is reduced there and any other scalar refused.

All elimination goes through one sparse kernel, ``_echelon``.  Its rows are
``{column: scalar}`` dicts of nonzero canonical scalars; over the rationals
the pivot normalisation divides through ``Fraction`` (imported by the call,
so an F_p run never loads ``fractions``), and a division of two ``int``
never yields a ``float``.  Dense vectors are only made sparse on the
way in and dense on the way out, so a large, sparse system such as the
commutator equations of ``algebras.center_basis`` costs time and memory in
proportion to its nonzero entries.  (Separability needs none: the smash is
free over the twisted ring, see :mod:`smash`.)  ``Mat`` stays dense;
``rref`` keeps its dense interface on top of the kernel.
"""

from __future__ import annotations

from .errors import FieldMismatch
from .fields import _canonical


def vzero(field, n):
    z = field.zero
    return tuple(z for _ in range(n))


def vadd(field, u, v):
    return field.vector(a + b for a, b in zip(u, v))


def vsub(field, u, v):
    return field.vector(a - b for a, b in zip(u, v))


def vscale(field, c, u):
    return field.vector(c * a for a in u)


def _axpy(row, f, src, p):
    """row -= f * src in place, dropping the entries that cancel."""
    get = row.get
    if p:
        for k, v in src.items():
            x = (get(k, 0) - f * v) % p
            if x:
                row[k] = x
            else:
                del row[k]
    else:
        for k, v in src.items():
            x = get(k, 0) - f * v
            if x:
                row[k] = x
            else:
                del row[k]


def _echelon(rows, p):
    """Canonical reduced row echelon form of sparse rows.

    Each row is a ``{column: scalar}`` dict of nonzero canonical scalars:
    int residues mod ``p``, or ``int``/``Fraction`` rationals when ``p`` is 0.
    Over the rationals a pivot row is divided by its lead through
    ``Fraction`` and its integral entries are stored as ``int``.  The input
    rows are not modified.  Returns ``{pivot: row}`` in pivot order; each
    row has a 1 at its pivot, which is its smallest column, and 0 at every
    other pivot.

    The pivot rows are kept fully reduced after every input row
    (Gauss-Jordan), so reducing the next row is one pass over its pivot
    columns, and subtracting a pivot row never creates a pivot entry.
    """
    if not p:
        from fractions import Fraction
    pivots = {}
    for src in rows:
        row = dict(src)
        for c in [c for c in row if c in pivots]:
            _axpy(row, row[c], pivots[c], p)
        if not row:
            continue
        c = min(row)
        lead = row[c]
        if lead != 1:
            if p:
                inv = pow(lead, -1, p)
                row = {k: v * inv % p for k, v in row.items()}
            else:
                row = {k: _canonical(Fraction(v, lead)) for k, v in row.items()}
        for prow in pivots.values():
            f = prow.get(c)
            if f is not None:
                _axpy(prow, f, row, p)
        pivots[c] = row
    return dict(sorted(pivots.items()))


def _sparse(vec):
    """Nonzero entries of a canonical dense vector as ``{column: scalar}``."""
    return {c: x for c, x in enumerate(vec) if x}


def _dense(row, field, n):
    """Dense tuple of canonical scalars from ``{column: scalar}``."""
    out = [field.zero] * n
    reduce = field.reduce
    for c, x in row.items():
        out[c] = reduce(x)
    return tuple(out)


def rref(rows, field):
    """Reduced row echelon form of a list of row vectors.

    Returns ``(reduced_rows, pivot_columns)`` with zero rows dropped and the
    remaining rows sorted by pivot column.  The input is not modified.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    scalars = field.scalars
    reduced = _echelon([_sparse(scalars(r)) for r in rows], field.characteristic)
    return [_dense(r, field, ncols) for r in reduced.values()], list(reduced)


class Mat:
    """Immutable dense matrix over an exact field."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, entries):
        entries = tuple(map(field.scalars, entries))
        self.field = field
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0
        for r in entries:
            if len(r) != self.cols:
                raise ValueError("ragged matrix")
        self.entries = entries

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero
        return cls(field, [[z] * cols for _ in range(rows)])

    @classmethod
    def from_columns(cls, field, columns, rows=None):
        if not columns:
            return cls.zeros(field, rows or 0, 0)
        n = len(columns[0])
        return cls(field, [[col[i] for col in columns] for i in range(n)])

    def column(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def sparse_columns(self):
        """The columns as ``{row: scalar}`` dicts of their nonzero entries."""
        return [_sparse(col) for col in zip(*self.entries)]

    def apply(self, vec):
        """Matrix times coordinate column."""
        if len(vec) != self.cols:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} on vector of length {len(vec)}")
        nz = [(j, x) for j, x in enumerate(vec) if x]
        out = []
        for row in self.entries:
            acc = 0
            for j, x in nz:
                a = row[j]
                if a:
                    acc += a * x
            out.append(acc)
        return self.field.vector(out)

    def __matmul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.field != other.field:
            raise FieldMismatch(self.field, other.field)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        vector = self.field.vector
        bt = other.transpose().entries
        out = []
        for row in self.entries:
            out_row = []
            for col in bt:
                acc = 0
                for a, b in zip(row, col):
                    if a and b:
                        acc += a * b
                out_row.append(acc)
            out.append(vector(out_row))
        return Mat(self.field, out)

    def transpose(self):
        return Mat(self.field, [[self.entries[i][j] for i in range(self.rows)]
                                for j in range(self.cols)])

    def rank(self):
        return len(rref(self.entries, self.field)[0])

    def is_zero(self):
        return all(not x for row in self.entries for x in row)

    def inverse(self):
        """Inverse of a square matrix, or None if singular."""
        if self.rows != self.cols:
            return None
        n = self.rows
        aug = [list(row) + list(ident_row)
               for row, ident_row in zip(self.entries, Mat.identity(self.field, n).entries)]
        reduced, pivots = rref(aug, self.field)
        if pivots != list(range(n)):
            return None
        return Mat(self.field, [row[n:] for row in reduced])

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field == other.field
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Mat[{self.rows}x{self.cols}]({body})"


class Subspace:
    """Subspace of coordinate space, stored as its canonical echelon basis.

    The basis rows are kept sparse, as ``{pivot: {column: scalar}}``
    (see ``_echelon``); the dense ``basis`` tuples are built on first use.
    """

    __slots__ = ("field", "ambient", "_rows", "_basis")

    def __init__(self, field, ambient, rows):
        self.field = field
        self.ambient = ambient
        self._rows = rows
        self._basis = None

    @classmethod
    def _span(cls, field, ambient, rows):
        """Span of sparse rows of nonzero canonical scalars."""
        return cls(field, ambient, _echelon(rows, field.characteristic))

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        scalars = field.scalars
        rows = []
        for v in vectors:
            if len(v) != ambient:
                raise ValueError("vector length does not match ambient dimension")
            rows.append(_sparse(scalars(v)))
        return cls._span(field, ambient, rows)

    @classmethod
    def from_sparse(cls, field, ambient, rows):
        """Span of sparse vectors given as ``{column: scalar}`` dicts of any
        representatives."""
        sparse = field.sparse
        return cls._span(field, ambient, [sparse(r) for r in rows])

    @classmethod
    def kernel_from_sparse(cls, field, n, rows):
        """Solution space in n unknowns of the homogeneous system whose rows
        are ``{column: scalar}`` dicts of any representatives."""
        sparse = field.sparse
        return _kernel(field, n, [sparse(r) for r in rows])

    @classmethod
    def zero(cls, field, ambient):
        return cls(field, ambient, {})

    @classmethod
    def full(cls, field, ambient):
        return cls.from_vectors(field, ambient, Mat.identity(field, ambient).entries)

    @property
    def basis(self):
        if self._basis is None:
            self._basis = tuple(_dense(r, self.field, self.ambient)
                                for r in self._rows.values())
        return self._basis

    @property
    def pivots(self):
        return tuple(self._rows)

    @property
    def dim(self):
        return len(self._rows)

    def is_zero(self):
        return not self._rows

    def is_full(self):
        return self.dim == self.ambient

    def _check_compatible(self, other):
        if self.ambient != other.ambient or self.field != other.field:
            raise ValueError("subspaces live in different ambient spaces")

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field == other.field and self.ambient == other.ambient
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.ambient, self.pivots))

    def __add__(self, other):
        self._check_compatible(other)
        return Subspace._span(self.field, self.ambient,
                              list(self._rows.values()) + list(other._rows.values()))

    def intersect(self, other):
        """Intersection by Zassenhaus: the rows of the echelon form of
        [[u, u], [w, 0]] that vanish on the left half span U ∩ W."""
        self._check_compatible(other)
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.field, self.ambient)
        n = self.ambient
        rows = [{**u, **{c + n: x for c, x in u.items()}} for u in self._rows.values()]
        rows.extend(other._rows.values())
        reduced = _echelon(rows, self.field.characteristic)
        return Subspace(self.field, n,
                        {q - n: {c - n: x for c, x in r.items()}
                         for q, r in reduced.items() if q >= n})

    def _residual(self, row):
        """Sparse remainder of a sparse row after eliminating every pivot."""
        out = dict(row)
        p = self.field.characteristic
        for c, x in row.items():
            prow = self._rows.get(c)
            if prow is not None:
                _axpy(out, x, prow, p)
        return out

    def contains_vector(self, vec):
        return not self._residual(_sparse(vec))

    def contains_sparse(self, row):
        """Membership of a vector given as a ``{column: scalar}`` dict."""
        return not self._residual(self.field.sparse(row))

    def contains(self, other):
        """True when every vector of `other` lies in this subspace."""
        self._check_compatible(other)
        return all(not self._residual(r) for r in other._rows.values())

    def coordinates_of(self, vec):
        """Coefficients of vec on the echelon basis, or None if outside."""
        if self._residual(_sparse(vec)):
            return None
        return tuple(vec[p] for p in self._rows)

    def sparse_coordinates(self, row):
        """``coordinates_of`` for a ``{column: scalar}`` dict of nonzero
        canonical scalars, as ``{position: scalar}`` without zeros, in
        position order: a vector of the span has them at the pivots."""
        if self._residual(row):
            return None
        return {i: row[p] for i, p in enumerate(self._rows) if p in row}

    def linear_combination(self, coords):
        acc = {}
        get = acc.get
        for c, row in zip(coords, self._rows.values()):
            if c:
                for k, x in row.items():
                    acc[k] = get(k, 0) + c * x
        return _dense(self.field.sparse(acc), self.field, self.ambient)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def kernel_basis(m):
    """Canonical basis of the solution space of m·x = 0."""
    return _kernel(m.field, m.cols, [_sparse(r) for r in m.entries])


def _kernel(field, n, rows):
    """Canonical basis of the solution space of the sparse rows in n unknowns."""
    p = field.characteristic
    reduced = _echelon(rows, p)
    one = field.one
    vectors = []
    for f in range(n):
        if f in reduced:
            continue
        v = {f: one}
        for q, row in reduced.items():
            x = row.get(f)
            if x is not None:
                v[q] = -x % p if p else -x
        vectors.append(v)
    return Subspace._span(field, n, vectors)


def image_basis(m):
    """Canonical basis of the column space of m."""
    return Subspace.from_vectors(m.field, m.rows, m.columns())


def solve(m, b):
    """Some solution x of m·x = b, or None when the system is inconsistent."""
    if len(b) != m.rows:
        raise ValueError("right-hand side has wrong length")
    aug = [list(row) + [bv] for row, bv in zip(m.entries, b)]
    reduced, pivots = rref(aug, m.field)
    if m.cols in pivots:
        return None
    x = list(vzero(m.field, m.cols))
    for row, p in zip(reduced, pivots):
        x[p] = row[m.cols]
    return tuple(x)
