"""Finite-dimensional unital associative algebras given by structure constants.

An algebra of dimension d over an exact field is stored as sparse product
rows: ``products[i]`` is a dict ``{j: cell}`` holding only the nonempty
cells, in ascending j, and the cell of b_i·b_j lists the pairs (k, v) with
v != 0 such that b_i·b_j = Σ v·b_k, sorted by k.  No empty cell is stored:
a point lookup is ``products[i].get(j, ())``.  Every builder emits these
rows directly, and dense constants (a scenario's ``constants``) are
converted once where they enter; ``make_algebra`` refuses any other row
form.  It checks the shape of the rows and puts each cell in index order,
then re-proves associativity and the unit law on every basis triple before
handing the algebra out; a direct product is built from validated parts.
``smash_algebra`` is the one builder of a smash product A # B, from the
comultiplication triples of B and a sparse table of b_k▷a_y; the group
smash of :mod:`smash` and every algebra of :mod:`hopf` are built by it.

This module holds what every run computes with: the input constructions
of a scenario (``product_of_fields``, ``field_algebra``, ``direct_product``,
``subalgebra``), the dual group algebra and the smash builder of the twisted
ring's smash product, ideals, centres and algebra maps.  The matrix
algebras, tensor products and group algebras that only the duality, Hopf
and centers work builds are in :mod:`constructions`, which loads on first
use, so a run that never builds one never compiles them.

The exhaustive identity checks (associativity, matrix units, maps being
multiplicative) sum the difference of both sides over every inner index in
one accumulator per outer index: they cost the nonzero product terms, and
the smallest nonzero key is the first failure of a tuple-by-tuple loop.
Every such walk but associativity runs on one skeleton, ``_residues``,
which yields the failing tuples in order, and every table of sparse
columns, a map's or one on the last leg of a tensor, is applied by one
kernel, ``_image``.  Associativity keeps one
accumulator per middle index j, covering every (i, k), and walks the
nonempty cells of the product table by row and by column
(``StructureAlgebra.nonempty_cells``); ``make_algebra`` builds that index in
its shape pass, so the check allocates nothing per pair, and
``center_basis`` and ``smash_algebra`` reuse it.

An element is a sparse vector ``{index: scalar}`` of nonzero scalars, and
the unit is one, in index order.  Scalars follow :mod:`fields`: the
products kernels (``StructureAlgebra.mul``, ``_lincomb``) accept any ``int``
representative over F_p and return canonical scalars, reducing once per
output coefficient.  The products of x with every basis vector, whose span
is an ideal A·e, are one table, ``StructureAlgebra.multiples``.  A vector
or a list of columns handed in through the API (an ``AlgebraMap``, an
idempotent, an action, an antipode) is read by one check,
``_sparse_columns``: one column per basis vector, each row an ``int`` in
range and each scalar through the field's ``scalars``, so over F_p it is
reduced and anything but an ``int`` is refused.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property

from .errors import (AlgebraMismatch, FieldMismatch, InternalCheckFailed,
                     NotAssociative, NotCentralIdempotent, UnitFails)
from .fields import _rational_types
from .linalg import Subspace, _transpose


class StructureAlgebra:
    """Unital (or, when unit is None, non-unital) structure-constant algebra.

    ``products[i]`` is the row of b_i: a dict ``{j: cell}`` over the j with
    b_i·b_j != 0, in ascending j, each cell a tuple of (k, v) pairs, one per
    nonzero coefficient v of b_k, sorted by k.  No empty cell is stored, so
    b_i·b_j is ``products[i].get(j, ())``.  These sparse rows are the only
    copy of the structure constants.  The rows arrive in that form and are
    stored as they are: ``make_algebra`` canonicalises the tables it is
    given, and the matrix, product and tensor builders emit sorted rows of
    sorted cells from sorted factors.
    """

    def __init__(self, field, products, unit, labels=None):
        self.field = field
        self.dim = len(products)
        self.products = tuple(products)
        self.unit = unit   # {index: scalar} in index order, or None
        if labels is None:
            labels = [f"b{i}" for i in range(self.dim)]
        self.labels = tuple(labels)

    @cached_property
    def nonempty_cells(self):
        """The nonempty cells of the product table as (by_row, by_col):
        by_row[i] lists the pairs (j, b_i·b_j), by_col[j] the pairs
        (i, b_i·b_j), in index order.  ``make_algebra`` sets it from its
        shape pass; any other algebra derives it on first read."""
        by_row = [row.items() for row in self.products]
        by_col = [[] for _ in range(self.dim)]
        for i, row in enumerate(by_row):
            for j, cell in row:
                by_col[j].append((i, cell))
        return by_row, by_col

    def multiples(self, x, left=True):
        """``{b: b_b·x}``, or ``{b: x·b_b}`` when not ``left``, over the
        basis indices b whose product is nonzero, each canonical: the
        products of x with every basis vector, from one walk over the
        nonempty cells that x's support reaches.  Left multiples read the
        column index ``nonempty_cells[1]``; right multiples read
        ``products`` directly and never build a column index, which on a
        matrix algebra would stay cached for the rest of the run."""
        rows = self.products
        cells = self.nonempty_cells[1] if left else {j: rows[j].items() for j in x}
        acc = {}
        for j, c in x.items():
            for b, cell in cells[j]:
                _add(acc.setdefault(b, {}), 0, c, cell)
        sparse = self.field.sparse
        return {b: v for b, part in acc.items() if (v := sparse(part))}

    def mul(self, x, y):
        """Product of elements given as ``{index: scalar}``, without zeros."""
        return self.field.sparse(self._mul_acc(x, y))

    def _mul_acc(self, x, y):
        """The product x·y before reduction: a fresh ``{index: scalar}``
        accumulator of representatives, zeros possible."""
        acc = {}
        get = acc.get
        products = self.products
        for i, xi in x.items():
            cell_at = products[i].get
            for j, yj in y.items():
                cell = cell_at(j)
                if cell:
                    c = xi * yj
                    for k, v in cell:
                        acc[k] = get(k, 0) + c * v
        return acc

    def format_vec(self, x):
        """A sparse vector as text, its terms in index order."""
        parts = [f"({c})*{self.labels[i]}" for i, c in sorted(x.items()) if c]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"StructureAlgebra(dim={self.dim}, field={self.field!r})"


def _index(pair):
    return pair[0]


def _pure_tensor(field, u, v, dr):
    """The sparse vector u⊗v of a tensor product, index i·dr + j."""
    return field.sparse({i * dr + j: a * b for i, a in u.items() for j, b in v.items()})


def _lincomb(field, terms):
    """The sparse vector Σ c·v over the (c, v) pairs of ``terms``, each v a
    sparse vector ``{index: scalar}``, canonical and without zeros."""
    acc = {}
    get = acc.get
    for c, vec in terms:
        for k, x in vec.items():
            acc[k] = get(k, 0) + c * x
    return field.sparse(acc)


def _add(acc, base, c, terms):
    """acc[base + t] += c·v for every (t, v) in ``terms`` (the items of a
    sparse vector or a product cell), unreduced."""
    get = acc.get
    for t, v in terms:
        key = base + t
        acc[key] = get(key, 0) + c * v


def _residues(field, outer, fill, width, split=None):
    """The failures of an identity checked with one accumulator per outer
    index: ``fill(acc, o)`` adds into a fresh ``acc`` the left side minus
    the right for every inner tuple, at key inner·width + t.  Yields
    (o, inner) for every failing tuple in the order of a per-tuple loop,
    inner read off the keys that do not reduce to zero (split into
    divmod(inner, split) when ``split`` is given); a caller that stops
    fills nothing past the outer index of the last item it took."""
    for o in outer:
        acc = {}
        fill(acc, o)
        for inner in sorted({k // width for k in field.sparse(acc)}):
            yield (o, inner) if split is None else (o, *divmod(inner, split))


def _image(cols, terms, acc=None, base=0, c=1, width=0):
    """Add c·α(Σ x·b_k) at keys base + t, unreduced, into acc (or a new
    dict); α is the map with sparse columns cols.  Returns acc.  With a
    ``width``, α acts on the last leg of a tensor: a term of index
    y·len(cols) + k adds c·x·α(b_k) at base + y·width + t."""
    acc = {} if acc is None else acc
    d = len(cols)
    for idx, x in terms:
        y, k = divmod(idx, d)
        _add(acc, base + y * width, c * x, cols[k].items())
    return acc


def _sparse_columns(field, columns, count, rows, what="map column"):
    """``columns`` read in ``field`` as canonical ``{row: scalar}`` dicts
    without zeros; ValueError unless there are ``count`` of them, each a
    mapping, each row an ``int`` in 0..rows-1 and each scalar exact (see
    ``fields.scalars``)."""
    scalars = field.scalars
    columns = [{t: x for t, x in zip(_mapping(col, what), scalars(col.values())) if x}
               for col in columns]
    if len(columns) != count:
        raise ValueError(f"map has {len(columns)} columns, domain dimension is {count}")
    if not all(type(t) is int and 0 <= t < rows for col in columns for t in col):
        raise ValueError(f"{what} has an index outside 0..{rows - 1}")
    return columns


def _mapping(x, what):
    """x, once it is a mapping ``{index: scalar}``; ValueError otherwise."""
    if not isinstance(x, Mapping):
        raise ValueError(f"{what} must be a dict {{index: scalar}}, not {type(x).__name__}")
    return x


def _sparse_vector(algebra, x, what):
    """A sparse vector of ``algebra`` read by ``_sparse_columns``."""
    return _sparse_columns(algebra.field, [x], 1, algebra.dim, what)[0]


def _associativity_witness(alg):
    """First basis triple (i, j, k), in lexicographic order, with
    (b_i b_j) b_k != b_i (b_j b_k), or None when the table is associative.

    Works on the nonempty cells of the product table.  For each middle
    index j one accumulator, keyed i·d² + k·d + n, collects the coefficient
    of b_n in (b_i b_j) b_k minus that in b_i (b_j b_k) for every (i, k) at
    once: the first side runs i over the nonempty cells of column j, m over
    b_i b_j and k over the nonempty cells of row m; the second runs k over
    the nonempty cells of row j, m over b_j b_k and i over the nonempty
    cells of column m.  The cost is the nonzero product terms, not d³
    triples.  The smallest failing key of a j gives its first (i, k), and
    the witness is the least (i, j, k) over every j.
    """
    sparse = alg.field.sparse
    d = alg.dim
    dd = d * d
    by_row, by_col = alg.nonempty_cells
    first = None
    for j in range(d):
        acc = {}
        get = acc.get
        for i, cell in by_col[j]:
            base_i = i * dd
            for m, c in cell:
                for k, mcell in by_row[m]:
                    base = base_i + k * d
                    for n, v in mcell:
                        key = base + n
                        acc[key] = get(key, 0) + c * v
        for k, cell in by_row[j]:
            base_k = k * d
            for m, c in cell:
                for i, mcell in by_col[m]:
                    base = i * dd + base_k
                    for n, v in mcell:
                        key = base + n
                        acc[key] = get(key, 0) - c * v
        bad = sparse(acc)
        if bad:
            i, rest = divmod(min(bad), dd)
            witness = (i, j, rest // d)
            if first is None or witness < first:
                first = witness
    return first


def _canonical_cells(field, products, unit, d):
    """The shape pass of ``make_algebra``, one walk over the given cells:
    the rows in the form of ``StructureAlgebra.products``, the
    (by_row, by_col) index of ``StructureAlgebra.nonempty_cells`` and the
    unit in index order without zeros; ValueError for a malformed table.

    A row must be a dict ``{j: cell}``, and every j an ``int`` in range;
    every cell has indices in range, no zero and no repeated index, and its
    scalars are exact: over F_p residues in [0, p), over ℚ an ``int`` or a
    ``Fraction``.  An empty cell is dropped, each cell is sorted by index
    and each row by j.  The unit, a sparse vector
    or None, has its indices in range and exact scalars too."""
    p = field.characteristic
    exact = {int} if p else _rational_types()
    bad = None   # the first scalar that is not exact, raised last
    rows = []
    by_col = [[] for _ in range(d)]
    for i, row in enumerate(products):
        if not isinstance(row, Mapping):
            raise ValueError(f"product row {i} must be a dict {{j: cell}}, "
                             f"not {type(row).__name__}")
        cells = {}
        ascending, last = True, -1
        for j, cell in row.items():
            if not (type(j) is int and 0 <= j < d):
                raise ValueError(f"product row {i} has a key {j!r} outside 0..{d - 1}")
            size = len(cell)
            if not size:
                continue
            for k, v in cell:
                if not (type(k) is int and 0 <= k < d):
                    raise ValueError(f"structure constant index {k!r} out of range")
                if not v:
                    raise ValueError("structure constant cell lists a zero")
            if size > 1:
                cell = sorted(cell, key=_index)
                if len({k for k, _ in cell}) != size:
                    raise ValueError("structure constant cell repeats an index")
            if bad is None:
                for _, v in cell:
                    if type(v) not in exact or p and not 0 <= v < p:
                        bad = v
                        break
            cells[j] = tuple(cell)
            if j < last:
                ascending = False
            last = j
        if not ascending:
            cells = dict(sorted(cells.items()))
        for j, cell in cells.items():
            by_col[j].append((i, cell))
        rows.append(cells)
    if unit is not None:
        if not all(type(k) is int and 0 <= k < d for k in _mapping(unit, "unit")):
            raise ValueError(f"unit has an index outside 0..{d - 1}")
        if bad is None:
            bad = next((x for x in unit.values()
                        if type(x) not in exact or p and not 0 <= x < p), None)
        unit = dict(sorted((k, x) for k, x in unit.items() if x))
    if bad is not None:
        if not p:
            field.scalars((bad,))   # raises the field's ValueError
        raise ValueError(f"scalar {bad!r} is not a residue mod {p}")
    return rows, ([row.items() for row in rows], by_col), unit


def make_algebra(field, products, unit, labels=None):
    """Validate sparse structure constants exhaustively and return the algebra.

    ``products[i]`` is row i, a dict ``{j: cell}``, where the cell of
    b_i·b_j lists the (k, v) pairs, v nonzero, of b_i·b_j; ``unit`` is a
    sparse vector ``{index: scalar}``, or None.  Their shape is checked
    first, by the walk that also stores them in the form of
    ``StructureAlgebra.products`` (``_canonical_cells``): every row a dict,
    every j and index in range, no zero and no repeated index, and every
    scalar exact (see :mod:`fields`).  Associativity is then checked on all
    d^3 basis triples and the unit law on every basis element; the first
    failure names its witness.
    """
    d = len(products)
    rows, index, unit = _canonical_cells(field, products, unit, d)
    alg = StructureAlgebra(field, rows, unit, labels)
    alg.nonempty_cells = index   # seeds the cached index from the same walk

    witness = _associativity_witness(alg)
    if witness is not None:
        i, j, k = witness
        raise NotAssociative("algebra", alg.labels[i], alg.labels[j], alg.labels[k])
    if alg.unit is not None:
        failure = _unit_law_failure(alg)
        if failure is not None:
            i, side = failure
            raise UnitFails(alg.labels[i], side)
    return alg


def _unit_law_failure(alg):
    """First (basis index, "left" or "right") where 1·b = b = b·1 fails,
    or None.

    One accumulator per side, keyed i·d + k, holds 1·b_i − b_i (left) or
    b_i·1 − b_i (right) for every i at once: the left one from the rows of
    the unit's support, the right one from the cells in the unit's columns,
    met in one walk over the rows, so that no column index is built (see
    ``StructureAlgebra.multiples``)."""
    d = alg.dim
    unit = alg.unit
    products = alg.products
    left = {i * d + i: -1 for i in range(d)}
    for u, c in unit.items():
        for i, cell in products[u].items():
            _add(left, i * d, c, cell)
    right = {i * d + i: -1 for i in range(d)}
    for i, row in enumerate(products):
        for u, cell in row.items():
            c = unit.get(u)
            if c is not None:
                _add(right, i * d, c, cell)
    sparse = alg.field.sparse
    failures = [(min(bad) // d, side)
                for side, acc in (("left", left), ("right", right))
                if (bad := sparse(acc))]
    # the smaller index first; at one index "left" sorts before "right"
    return min(failures, default=None)


def is_central_idempotent(alg, x):
    """True iff the sparse vector x of ``alg`` has x·x = x and commutes with
    every basis element."""
    return _central_multiples(alg, _sparse_vector(alg, x, "idempotent")) is not None


def _central_multiples(alg, x):
    """The left multiples ``{b: b_b·x}`` of a canonical sparse vector x when
    x·x = x and they equal its right multiples; None otherwise."""
    if alg.mul(x, x) != x:
        return None
    left = alg.multiples(x)
    return left if left == alg.multiples(x, left=False) else None


def ideal_basis(alg, e):
    """Canonical basis of the two-sided ideal generated by a central
    idempotent, given as a sparse vector of ``alg``.

    The span of the b_i·e is Ae, a two-sided ideal because e is central:
    b·(ae) = (ba)e and (ae)·b = (ab)e.  The b_i·e are the products that
    prove e central."""
    e = _sparse_vector(alg, e, "idempotent")
    left = _central_multiples(alg, e)
    if left is None:
        raise NotCentralIdempotent(alg.format_vec(e))
    return Subspace.span(alg.field, alg.dim, left.values())


def center_basis(alg, generators=None):
    """The centre of the algebra, as the solution space of [x, g] = 0 for
    every g of ``generators``, closed by an exact check.

    ``generators`` are sparse vectors ``{index: scalar}`` that generate the
    algebra; by default the basis vectors, which gives the full system
    [x, b_j] = 0.  A caller that knows a smaller generating set passes it
    (``SmashAlgebra.generators``, ``constructions.MatrixAlgebra.generators``):
    x is central iff it commutes with the generators.  There is one
    equation per (generator, output coordinate), built over the nonempty
    cells of the product rows, and only for the coordinates the commutator
    reaches.

    The solution space always contains the centre.  The closing check
    proves the converse: every solution vector must commute with every
    basis element, summed from the product rows in one accumulator per
    vector.  So a returned space is the centre whatever set was passed; a
    set that does not generate and leaves a larger solution space raises
    InternalCheckFailed.
    """
    d = alg.dim
    by_row, by_col = alg.nonempty_cells
    if generators is None:
        one = alg.field.one
        generators = [{j: one} for j in range(d)]
    rows = []
    for gen in generators:
        # eqs[k][i]: coefficient of b_k in b_i·gen − gen·b_i
        eqs = {}
        for j, c in gen.items():
            for i, cell in by_col[j]:
                for k, v in cell:
                    row = eqs.setdefault(k, {})
                    row[i] = row.get(i, 0) + c * v
            for i, cell in by_row[j]:
                for k, v in cell:
                    row = eqs.setdefault(k, {})
                    row[i] = row.get(i, 0) - c * v
        rows.extend(eqs[k] for k in sorted(eqs))
    centre = Subspace.kernel(alg.field, d, rows)

    def commutators(acc, v):
        # key j·d + k: coefficient of b_k in v·b_j − b_j·v
        get = acc.get
        for i, x in v.items():
            for j, cell in by_row[i]:
                base = j * d
                for k, w in cell:
                    acc[base + k] = get(base + k, 0) + x * w
            for j, cell in by_col[i]:
                base = j * d
                for k, w in cell:
                    acc[base + k] = get(base + k, 0) - x * w

    if any(_residues(alg.field, centre.basis, commutators, d)):
        raise InternalCheckFailed("central element does not commute")
    return centre


def _idempotent_products(field, m):
    """Sparse rows of m orthogonal idempotents: e_i e_j = [i = j] e_i."""
    one = field.one
    return [{i: ((i, one),)} for i in range(m)]


def field_algebra(field):
    """The base field as a one-dimensional algebra."""
    return make_algebra(field, _idempotent_products(field, 1), {0: field.one},
                        labels=["1"])


def product_of_fields(field, m):
    """The split algebra field^m: orthogonal idempotents e_0..e_{m-1}."""
    if m < 1:
        raise ValueError("need at least one factor")
    return make_algebra(field, _idempotent_products(field, m),
                        dict.fromkeys(range(m), field.one),
                        labels=[f"e{i}" for i in range(m)])


def dual_group_algebra(field, group):
    """Pointwise-function algebra on the group: orthogonal idempotents p_g."""
    d = group.order
    labels = [f"p_{lab}" for lab in group.labels]
    return make_algebra(field, _idempotent_products(field, d),
                        dict.fromkeys(range(d), field.one), labels=labels)


def direct_product(left, right):
    """The direct product of two algebras over one field (FieldMismatch
    otherwise): the left factor's basis, labelled l_*, then the right's,
    labelled r_*."""
    if left.field != right.field:
        raise FieldMismatch(left.field, right.field)
    dl = left.dim
    products = list(left.products)
    products += [{dl + j: tuple((dl + k, v) for k, v in cell) for j, cell in row.items()}
                 for row in right.products]
    unit = {**left.unit, **{dl + k: v for k, v in right.unit.items()}}
    labels = [f"l_{lab}" for lab in left.labels] + [f"r_{lab}" for lab in right.labels]
    return StructureAlgebra(left.field, products, unit, labels)


def smash_algebra(a, b, comul, acted, unit):
    """The smash product A # B of an algebra A and a bialgebra B acting on it.

    Basis x#b_i has index x·dim B + i, and
    (x#b_i)(y#b_j) = Σ over (k, l, v) in Δ(b_i) of v·x(b_k▷y) # b_l·b_j,
    where ``comul`` holds the comultiplication triples of B and
    ``acted[k][y]`` is b_k▷a_y as ``{index: scalar}``.  ``unit`` is None when
    the product has no global unit.  The action table is indexed by y,
    keeping only the nonzero b_k▷a_y (an empty entry is never read), and
    each Δ(b_i) by its first leg k.  Each x·(b_k▷y) is formed once per
    (x, k, y), from row x of A, and only for a nonzero b_k▷y; each (x, y)
    then visits only the terms of Δ(b_i) whose first leg gives a nonzero
    x·(b_k▷y) (one of the n terms of Δ(p_h) for k^G, where p_h▷y is nonzero
    for one h), and each term walks only the nonempty cells of its row of B
    (one per row for k^G); a cell no term reaches, or whose terms cancel, is
    not emitted.  The sparse
    rows are validated by ``make_algebra``, whose refusal is raised as is:
    every caller builds from validated data, so a refusal is internal.
    """
    field = a.field
    sparse = field.sparse
    db = b.dim
    brows = b.nonempty_cells[0]
    acting = [[] for _ in range(a.dim)]   # y -> [(k, b_k▷a_y)], nonzero only
    for k, by_y in enumerate(acted):
        for y, ay in enumerate(by_y):
            if ay:
                acting[y].append((k, ay.items()))
    by_first_leg = []                     # i -> {k: [(l, v)] over Δ(b_i)}
    for terms in comul:
        by_k = {}
        for k, l, v in terms:
            by_k.setdefault(k, []).append((l, v))
        by_first_leg.append(by_k)
    products = []
    for arow in a.products:
        # the nonzero x·(b_k▷y) from row x of A, shared by every term of
        # every Δ(b_i) that has b_k as its first leg
        xky = []
        for y, ks in enumerate(acting):
            nonzero = []
            for k, ay in ks:
                acc = {}
                for j, c in ay:
                    cell = arow.get(j)
                    if cell:
                        _add(acc, 0, c, cell)
                xs = sparse(acc)
                if xs:
                    nonzero.append((k, xs.items()))
            if nonzero:
                xky.append((y * db, nonzero))
        for by_k in by_first_leg:
            row = {}
            for base, nonzero in xky:
                # the cells of (x#b_i)(y#b_j) for every j at once, over the
                # nonempty cells b_l·b_j of the rows the terms of Δ(b_i) reach
                cells = {}
                for k, xs in nonzero:
                    for l, v in by_k.get(k, ()):
                        for j, bcell in brows[l]:
                            cell = cells.get(j)
                            if cell is None:
                                cell = cells[j] = {}
                            get = cell.get
                            for t, u in bcell:
                                vu = v * u
                                for s, w in xs:
                                    key = s * db + t
                                    cell[key] = get(key, 0) + vu * w
                for j in sorted(cells):
                    cell = sparse(cells[j])
                    if cell:
                        row[base + j] = tuple(cell.items())
            products.append(row)
    labels = [f"{la}#{lb}" for la in a.labels for lb in b.labels]
    return make_algebra(field, products, unit, labels=labels)


class AlgebraMap:
    """A linear map between algebras over one field (FieldMismatch
    otherwise), stored only as its columns: column j is the image of basis
    vector j as a canonical ``{index: scalar}`` dict.

    Multiplicativity and unitality are checkable predicates, not assumptions:
    several maps in this package are homomorphisms only by theorem.
    """

    __slots__ = ("domain", "codomain", "columns")

    def __init__(self, domain, codomain, columns):
        if domain.field != codomain.field:
            raise FieldMismatch(domain.field, codomain.field)
        columns = _sparse_columns(domain.field, columns, domain.dim, codomain.dim)
        self.domain = domain
        self.codomain = codomain
        self.columns = columns

    def apply(self, x):
        """The image of a sparse vector ``{index: scalar}``, sparse."""
        return self.codomain.field.sparse(_image(self.columns, x.items()))

    def compose(self, inner):
        """self after inner, column by column from the sparse columns."""
        if inner.codomain is not self.domain:
            raise AlgebraMismatch()
        return AlgebraMap(inner.domain, self.codomain,
                          [self.apply(col) for col in inner.columns])

    def _multiplicativity_witness(self, anti=False):
        """First basis pair (i, j), in lexicographic order, where
        φ(b_i b_j) differs from φ(b_i)φ(b_j), or from φ(b_j)φ(b_i) when
        ``anti``; None when there is no such pair."""
        return next(self._multiplicativity_failures(anti), None)

    def _multiplicativity_failures(self, anti=False):
        """Every basis pair (i, j) where the multiplicativity of
        ``_multiplicativity_witness`` fails, in lexicographic order.

        For each i one accumulator, keyed j·D + t (D = dim of the codomain),
        collects the coefficient of b_t in φ(b_i b_j) − φ(b_i)φ(b_j) for
        every j at once: the first side walks the nonempty cells of row i
        of the domain; the second, for each coefficient x of φ(b_i) at b_r,
        walks the nonempty cells b_r·b_s of codomain row r (b_s·b_r of
        column r when ``anti``) against an index s → [(j, φ(b_j)[s])] of
        the nonzero column entries.  The cost is the nonzero product terms,
        not d² products; the failing keys of i name its failing j, read by
        ``_residues``.
        """
        dc = self.codomain.dim
        rows = self.codomain.products
        by_col = self.codomain.nonempty_cells[1] if anti else None
        cols = [tuple(col.items()) for col in self.columns]
        at = [[] for _ in range(dc)]   # at[s]: (j·D, φ(b_j)[s]) over the nonzero entries
        for j, col in enumerate(cols):
            for s, y in col:
                at[s].append((j * dc, y))

        def fill(acc, i):
            get = acc.get
            for j, cell in self.domain.products[i].items():
                base = j * dc
                for k, v in cell:
                    for t, x in cols[k]:
                        key = base + t
                        acc[key] = get(key, 0) + v * x
            for r, x in cols[i]:
                for s, cell in (by_col[r] if anti else rows[r].items()):
                    for base, y in at[s]:
                        c = x * y
                        for t, v in cell:
                            key = base + t
                            acc[key] = get(key, 0) - c * v

        return _residues(self.codomain.field, range(self.domain.dim), fill, dc)

    def is_multiplicative(self):
        return self._multiplicativity_witness() is None

    def is_unital(self):
        return self.apply(self.domain.unit) == self.codomain.unit

    def kernel(self):
        rows = _transpose(self.columns, self.codomain.dim)
        return Subspace.kernel(self.domain.field, self.domain.dim, rows)

    def image(self):
        return Subspace.span(self.domain.field, self.codomain.dim, self.columns)


def subalgebra(parent, span, unit_vec, labels=None):
    """Structure algebra on a multiplicatively closed subspace of `parent`.

    `span` must be closed under the parent product and contain the sparse
    vector `unit_vec`, which becomes the unit of the subalgebra.  Its basis
    is the echelon basis of `span`, so the inclusion has the columns
    ``span.basis``.
    """
    basis = span.basis
    products = []
    for u in basis:
        row = {}
        for j, v in enumerate(basis):
            coords = span.coordinates(parent.mul(u, v))
            if coords is None:
                raise ValueError("subspace is not closed under multiplication")
            if coords:
                row[j] = tuple(coords.items())
        products.append(row)
    unit_coords = span.coordinates(unit_vec)
    if unit_coords is None:
        raise ValueError("unit vector lies outside the subspace")
    return make_algebra(parent.field, products, unit_coords, labels=labels)
