"""Exact linear algebra: one sparse elimination kernel, and subspaces.

Everything is computed over one of the exact fields from :mod:`fields`, so
rank, kernel and subspace equality are exact decisions, never numerical
estimates.  Subspaces are kept in reduced row echelon form, which makes the
echelon basis a canonical representative: two subspaces are equal iff their
stored bases are identical.

Scalars are the plain numbers of :mod:`fields`: over F_p canonical ``int``
residues in ``[0, p)``, over the rationals an ``int`` or a ``Fraction``.
There is one vector form, the ``{column: scalar}`` dict of nonzero
scalars, and every linear map of the library is a list of such columns
``{row: scalar}``.  Every vector a function here returns holds canonical
scalars: ``_echelon`` stores an integral rational as an ``int`` in one pass
over the rows it returns, so its kernels, inverse and sums need no
further reduction.

All elimination goes through ``_echelon``.  Over the rationals the pivot
normalisation stays in ``int`` when the lead divides every entry of its
row exactly (``v // lead``, the same value ``Fraction(v, lead)`` would
reduce to); only a quotient that needs a denominator goes through
``Fraction``, imported in that branch.  So neither an F_p run nor a ℚ run
whose pivots all divide exactly loads ``fractions``, and a division of two
``int`` never yields a ``float``.  A large, sparse system such as the
commutator equations of ``algebras.center_basis`` costs time and memory in
proportion to its nonzero entries.  (Separability needs none: the smash is
free over the twisted ring, see :mod:`smash`.)  The one inverse, S^{-1} of
an antipode, is ``_inverse``: one ``_echelon`` of the rows [S | I].

A ``Subspace`` is made by ``Subspace.span`` or ``Subspace.kernel`` and
read through ``basis``, ``pivots``, membership (``in``) and
``coordinates``.  A sum is one elimination, and no intersection is formed:
a direct-sum check reads dim(U ∩ W) = dim U + dim W − dim(U + W) off the
sum.
"""

from __future__ import annotations

from .fields import _canonical


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
    Over the rationals a pivot row of ``int`` entries that its lead divides
    exactly (a lead of -1 always does) is divided by ``//``; any other is
    divided through ``Fraction``.  Every integral entry of the rows
    returned is an ``int``.  The input rows are not modified.  Returns
    ``{pivot: row}`` in pivot order; each row has a 1 at its pivot, which
    is its smallest column, and 0 at every other pivot.

    The pivot rows are kept fully reduced after every input row
    (Gauss-Jordan), so reducing the next row is one pass over its pivot
    columns, and subtracting a pivot row never creates a pivot entry.
    """
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
            elif type(lead) is int and all(type(v) is int and not v % lead
                                           for v in row.values()):
                row = {k: v // lead for k, v in row.items()}
            else:
                from fractions import Fraction
                row = {k: _canonical(Fraction(v, lead)) for k, v in row.items()}
        for prow in pivots.values():
            f = prow.get(c)
            if f is not None:
                _axpy(prow, f, row, p)
        pivots[c] = row
    if not p:
        # an update may leave an integral Fraction, stored as its int
        for row in pivots.values():
            for k, v in row.items():
                if type(v) is not int and v.denominator == 1:
                    row[k] = v.numerator
    return dict(sorted(pivots.items()))


def _inverse(field, columns):
    """S^{-1} as sparse columns, S the square matrix with sparse ``columns``,
    or None when S is singular: one ``_echelon`` of the rows [S | I]."""
    n = len(columns)
    rows = [{**row, n + r: 1} for r, row in enumerate(_transpose(columns, n))]
    reduced = _echelon(rows, field.characteristic)
    if list(reduced) != list(range(n)):
        return None
    return [{r: row[n + j] for r, row in enumerate(reduced.values()) if n + j in row}
            for j in range(n)]


def _transpose(columns, n):
    """The n rows ``{column: scalar}`` of the matrix with sparse ``columns``."""
    rows = [{} for _ in range(n)]
    for j, col in enumerate(columns):
        for r, x in col.items():
            rows[r][j] = x
    return rows


class Subspace:
    """Subspace of coordinate space, stored as its canonical echelon basis:
    the sparse rows ``{pivot: {column: scalar}}`` of ``_echelon``.  Only
    this class reads that form; other modules see ``basis``, ``pivots``,
    membership (``in``) and ``coordinates``."""

    __slots__ = ("field", "ambient", "_rows")

    def __init__(self, field, ambient, rows):
        self.field = field
        self.ambient = ambient
        self._rows = rows

    @classmethod
    def span(cls, field, ambient, rows):
        """Span of vectors given as ``{column: scalar}`` dicts of any
        representatives."""
        return cls(field, ambient, _echelon(map(field.sparse, rows), field.characteristic))

    @classmethod
    def kernel(cls, field, n, rows):
        """Solution space in n unknowns of the homogeneous system whose rows
        are ``{column: scalar}`` dicts of any representatives: one vector
        per free column of their echelon form."""
        p = field.characteristic
        reduced = _echelon(map(field.sparse, rows), p)
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
        return cls(field, n, _echelon(vectors, p))

    @property
    def basis(self):
        """The echelon rows, in pivot order, as ``{column: scalar}`` dicts."""
        return tuple(self._rows.values())

    @property
    def pivots(self):
        return tuple(self._rows)

    @property
    def dim(self):
        return len(self._rows)

    def is_zero(self):
        return not self._rows

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field == other.field and self.ambient == other.ambient
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.ambient, self.pivots))

    def __add__(self, other):
        if self.ambient != other.ambient or self.field != other.field:
            raise ValueError("subspaces live in different ambient spaces")
        return Subspace(self.field, self.ambient,
                        _echelon([*self._rows.values(), *other._rows.values()],
                                 self.field.characteristic))

    def _residual(self, row):
        """Sparse remainder of a sparse row after eliminating every pivot."""
        out = dict(row)
        p = self.field.characteristic
        for c, x in row.items():
            prow = self._rows.get(c)
            if prow is not None:
                _axpy(out, x, prow, p)
        return out

    def __contains__(self, row):
        """Membership of a vector given as a ``{column: scalar}`` dict."""
        return not self._residual(self.field.sparse(row))

    def coordinates(self, row):
        """The coefficients on the echelon basis of a ``{column: scalar}``
        dict of nonzero canonical scalars, as ``{position: scalar}`` without
        zeros, in position order (a vector of the span has them at the
        pivots); None when the vector lies outside."""
        if self._residual(row):
            return None
        return {i: row[p] for i, p in enumerate(self._rows) if p in row}

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"
