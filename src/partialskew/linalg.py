"""Exact linear algebra: one sparse elimination kernel, and subspaces.

Everything is computed over one of the exact fields from :mod:`fields`, so
rank, kernel and subspace equality are exact decisions, never numerical
estimates.  Subspaces are kept in reduced row echelon form, which makes the
echelon basis a canonical representative: two subspaces are equal iff their
stored bases are identical.

Scalars are the plain numbers of :mod:`fields`: over F_p canonical ``int``
residues in ``[0, p)``, over the rationals an ``int`` or a ``Fraction``.
Every vector a function here returns holds canonical scalars; the
arithmetic kernels (``vadd``, ``vsub``, ``vscale``) accept any ``int``
representative and reduce each output coefficient once.  The entries of a
``Mat`` and the vectors of ``Subspace.from_vectors`` go through the field's
``scalars`` on the way in, so over F_p any ``int`` representative is
reduced there and any other scalar refused.

All elimination goes through one sparse kernel, ``_echelon``.  Its rows are
``{column: scalar}`` dicts of nonzero canonical scalars; over the rationals
the pivot normalisation divides through ``Fraction`` (imported by the call,
so an F_p run never loads ``fractions``), and a division of two ``int``
never yields a ``float``.  Dense vectors are only made sparse on the
way in and dense on the way out, so a large, sparse system such as the
commutator equations of ``algebras.center_basis`` costs time and memory in
proportion to its nonzero entries.  (Separability needs none: the smash is
free over the twisted ring, see :mod:`smash`.)  Every linear map of the
library is kept as sparse columns ``{row: scalar}``; a ``Mat`` is only the
dense form in which a caller hands one in, read once by ``sparse_columns``.
The one inverse, S^{-1} of an antipode, is ``_inverse``: one ``_echelon``
of the rows [S | I].
"""

from __future__ import annotations

from .fields import _canonical


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


def _inverse(field, columns):
    """S^{-1} as sparse columns, S the square matrix with sparse ``columns``,
    or None when S is singular: one ``_echelon`` of the rows [S | I]."""
    n = len(columns)
    rows = [{**row, n + r: 1} for r, row in enumerate(_transpose(columns, n))]
    reduced = _echelon(rows, field.characteristic)
    if list(reduced) != list(range(n)):
        return None
    return [{r: field.reduce(row[n + j]) for r, row in enumerate(reduced.values())
             if n + j in row} for j in range(n)]


def _transpose(columns, n):
    """The n rows ``{column: scalar}`` of the matrix with sparse ``columns``."""
    rows = [{} for _ in range(n)]
    for j, col in enumerate(columns):
        for r, x in col.items():
            rows[r][j] = x
    return rows


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


class Mat:
    """Immutable dense matrix over an exact field: the form in which a
    caller hands in an action or an antipode, read once as sparse columns."""

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

    def sparse_columns(self):
        """The columns as ``{row: scalar}`` dicts of their nonzero entries."""
        return [_sparse(col) for col in zip(*self.entries)]

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

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


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
