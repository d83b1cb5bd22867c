"""The algebras only the duality, Hopf and centers work builds: matrix
algebras, tensor products and group algebras.

No input builder of a scenario reads them but the ``{"matrix": n}`` algebra
spec, so they live apart from :mod:`algebras` and load on first use: the
duality and Hopf layers import them when they load, and the scenario
dispatcher imports ``matrix_algebra`` in the branches that build one.  A
run of the separability suite alone never compiles them.

A matrix algebra M_n(B) over a base algebra B has the basis E_{r,s}⊗b_i,
its rows emitted directly from the base's sorted rows, and re-proves its
matrix-unit relations and unit law when built; ``_pierce_corner`` spans
its corner e·M·e, for the duality suite and the Hopf layer's operator
map.  A tensor product multiplies through its factors' rows,
(b_i⊗c_j)(b_k⊗c_l) = b_i b_k ⊗ c_j c_l; its own table ``products`` is
built from the factors' rows when first read, by the multiplicativity
check of a map into it.  The group algebra k[G] is validated by
``make_algebra`` like any other structure-constant table.
"""

from __future__ import annotations

from functools import cached_property

from .algebras import (StructureAlgebra, _lincomb, _pure_tensor, _residues,
                       _unit_law_failure, make_algebra)
from .errors import FieldMismatch, InternalCheckFailed
from .linalg import Subspace


def _legs(x, dr):
    """A sparse vector of a tensor product, index i·dr + j, as
    ``{i: {j: scalar}}``: x = Σ_i b_i ⊗ x_i."""
    legs = {}
    for idx, c in x.items():
        i, j = divmod(idx, dr)
        legs.setdefault(i, {})[j] = c
    return legs


def group_algebra(field, group):
    """Algebra with the group elements as basis and the Cayley table as product."""
    one = field.one
    d = group.order
    products = [{j: ((group.mul(i, j), one),) for j in range(d)} for i in range(d)]
    return make_algebra(field, products, {group.identity: one}, labels=group.labels)


class MatrixAlgebra(StructureAlgebra):
    """Square matrices over a base algebra, basis E_{r,s} tensor base basis.

    Rows and columns are indexed by 0..n-1; when built over a finite group
    the group's element order provides that indexing.
    """

    def __init__(self, base, size, group=None):
        field = base.field
        n, d = size, base.dim
        self.base = base
        self.size = n
        self.group = group
        slot = self.slot

        # (E_{gh} a_i)(E_{hs} a_j) = E_{gs} a_i a_j; every other product of
        # units is 0.  The cell depends on (g, s, i, j), not on h: row
        # (g, h, i) is the row of (g, i) shifted by h·n·d, sharing its cells
        products = []
        for g in range(n):
            shifted = [[(s * d + j, tuple((slot(g, s, k), v) for k, v in cell))
                        for s in range(n) for j, cell in base_row.items()]
                       for base_row in base.products]
            for h in range(n):
                offset = h * n * d
                products += ({offset + y: cell for y, cell in row} for row in shifted)
        unit = {slot(g, g, i): v for g in range(n) for i, v in base.unit.items()}
        names = range(n) if group is None else group.labels
        labels = [f"E[{r},{s}]*{lab}" for r in names for s in names for lab in base.labels]
        super().__init__(field, products, unit, labels)
        self._verify()

    def slot(self, r, s, i):
        return (r * self.size + s) * self.base.dim + i

    def generators(self):
        """E_{0s}⊗1 and E_{s0}⊗1 for every s, and E_{00}⊗a_i for every basis
        vector a_i of the base, sparse: they generate, since
        E_{rs}⊗a = (E_{r0}⊗1)(E_{00}⊗a)(E_{0s}⊗1)."""
        unit = self.base.unit
        one = self.field.one
        units = [(0, s) for s in range(self.size)]
        units += [(s, 0) for s in range(1, self.size)]
        return ([{self.slot(r, s, i): v for i, v in unit.items()} for r, s in units]
                + [{self.slot(0, 0, i): one} for i in range(self.base.dim)])

    def _verify(self):
        """E_gh·E_rs = δ_hr·E_gs (E_gh = E_{g,h}⊗1) on every quadruple,
        then the unit law.  For each (g, h) one accumulator, keyed
        (r·n + s)·dim + t, collects E_gh·E_rs − δ_hr·E_gs for every (r, s),
        over the nonempty cells of the rows E_gh reaches."""
        n, d, dim = self.size, self.base.dim, self.dim
        base_unit = self.base.unit
        eu = [[{self.slot(g, h, i): v for i, v in base_unit.items()}
               for h in range(n)] for g in range(n)]

        def relations(acc, gh):
            g, h = gh
            get = acc.get
            for x, cx in eu[g][h].items():
                for y, cell in self.products[x].items():
                    rs, i = divmod(y, d)
                    cy = base_unit.get(i)
                    if cy is None:
                        continue
                    c = cx * cy
                    base = rs * dim
                    for t, v in cell:
                        key = base + t
                        acc[key] = get(key, 0) + c * v
            for s in range(n):
                base = (h * n + s) * dim
                for t, v in eu[g][s].items():
                    acc[base + t] = get(base + t, 0) - v

        fail = next(_residues(self.field, [(g, h) for g in range(n) for h in range(n)],
                              relations, dim, n), None)
        if fail is not None:
            (g, h), r, s = fail
            raise InternalCheckFailed(f"matrix-unit relation fails at ({g},{h})x({r},{s})")
        if _unit_law_failure(self) is not None:
            raise InternalCheckFailed("matrix algebra unit law fails")


def matrix_algebra(base, index):
    """M_n over a structure algebra; index is a size or a finite group."""
    if isinstance(index, int):
        return MatrixAlgebra(base, index)
    return MatrixAlgebra(base, index.order, group=index)


def _pierce_corner(mat, e):
    """The span of the Pierce corner e·E_b·e over the basis E_b:
    e·E_b·e = Σ_k (E_b·e)_k·(e·E_k), with the e·E_k the right multiples of
    e and E_b·e one unreduced product per b.  It forms no left multiples,
    so it builds no column index of the matrix algebra."""
    field = mat.field
    e_times = mat.multiples(e, left=False)
    corner = []
    for b in range(mat.dim):
        times_e = mat._mul_acc({b: field.one}, e)
        corner.append(_lincomb(field, ((c, e_times[k]) for k, c in times_e.items()
                                       if k in e_times)))
    return Subspace.span(field, mat.dim, corner)


class TensorAlgebra(StructureAlgebra):
    """Tensor product with componentwise multiplication.

    Basis (i, j) is flattened as i*dim(right) + j, so nested tensor products
    flatten consistently regardless of grouping.  Products go through the
    factors: (b_i⊗c_j)(b_k⊗c_l) = b_i b_k ⊗ c_j c_l, from the left factor's
    rows and the right factor's own product, reduced once per output
    coefficient.  The table ``products`` is built from the factors' rows on
    its first read, which ``AlgebraMap._multiplicativity_witness`` makes; a
    nested right factor is never tabulated for a product.
    """

    def __init__(self, left, right):
        if left.field != right.field:
            raise FieldMismatch(left.field, right.field)
        self.field = left.field
        self.dim = left.dim * right.dim
        self.tensor_factors = (left, right)
        if left.unit is not None and right.unit is not None:
            self.unit = _pure_tensor(self.field, left.unit, right.unit, right.dim)
        else:
            self.unit = None
        self.labels = tuple(f"{la}(x){lb}" for la in left.labels for lb in right.labels)

    @cached_property
    def products(self):
        # a product of nonzero constants is nonzero, and a product of
        # sorted cells (or rows) is sorted by a·dim(right) + b; a cell with
        # an empty factor cell is empty
        left, right = self.tensor_factors
        dr = right.dim
        sparse = self.field.sparse
        return tuple(
            {lj * dr + rj: tuple(sparse({a * dr + b: va * vb for a, va in lcell
                                         for b, vb in rcell}).items())
             for lj, lcell in lrow.items() for rj, rcell in rrow.items()}
            for lrow in left.products for rrow in right.products)

    def _mul_acc(self, x, y):
        # x = Σ_i b_i⊗x_i and y = Σ_k b_k⊗y_k, so xy = Σ b_i b_k ⊗ x_i y_k:
        # one product of right legs per nonzero cell b_i b_k
        if not (x and y):
            return {}
        left, right = self.tensor_factors
        dr = right.dim
        rows = left.products
        ys = _legs(y, dr).items()
        acc = {}
        get = acc.get
        for i, xi in _legs(x, dr).items():
            cell_at = rows[i].get
            for k, yk in ys:
                cell = cell_at(k)
                if not cell:
                    continue
                legs = right._mul_acc(xi, yk).items()
                for a, va in cell:
                    base = a * dr
                    for b, w in legs:
                        key = base + b
                        acc[key] = get(key, 0) + va * w
        return acc


def tensor_algebra(left, right):
    return TensorAlgebra(left, right)
