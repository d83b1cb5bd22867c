from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from partialskew.fields import GF, QQ
from partialskew.linalg import Subspace, _echelon, _inverse

from dense_oracle import (apply, basis_of, dense, identity, intersect, inverse,
                          matmul, span_of, sparse, to_columns, to_rows)


def _null(field, m):
    """The solution space of m·x = 0, m by dense rows."""
    return Subspace.kernel(field, len(m[0]), [sparse(r) for r in m])


def _image(field, m):
    """The column space of m, by dense rows."""
    return Subspace.span(field, len(m), to_columns(m))


def _reduced(rows, field):
    """The reduced row echelon form of dense rows by ``_echelon``, as
    (dense rows, pivot columns)."""
    reduced = _echelon([sparse(field.scalars(r)) for r in rows], field.characteristic)
    return [dense(r, len(rows[0])) for r in reduced.values()], list(reduced)


def _contains(big, small):
    return all(v in big for v in small.basis)


def _combination(span, coords):
    """The sparse vector with coordinates ``coords`` ``{position: scalar}``
    on the echelon basis of span."""
    rows = span.basis
    acc = {}
    for i, c in coords.items():
        for t, x in rows[i].items():
            acc[t] = acc.get(t, 0) + c * x
    return span.field.sparse(acc)


def test_kernel_examples():
    # zero 1x1: everything is in the kernel
    assert basis_of(_null(QQ, [[0]])) == [(1,)]
    # identity: nothing is
    assert _null(QQ, [[1, 0], [0, 1]]).dim == 0
    # hand row reduction: x + y = 0
    assert basis_of(_null(QQ, [[1, 1], [2, 2]])) == [(1, -1)]


def test_image_examples():
    assert _image(QQ, [[0] * 3] * 3).dim == 0
    assert _image(QQ, to_rows(identity(4), 4)).dim == 4
    assert basis_of(_image(QQ, [[1, 2], [2, 4]])) == [(1, 2)]


def test_subspace_ops():
    u = span_of(QQ, 2, [[1, 0]])
    v = span_of(QQ, 2, [[0, 1]])
    assert intersect(u, v).is_zero()
    assert (u + v).dim == 2 and u + v == v + u

    w = span_of(QQ, 3, [[1, 1, 0]])
    big = span_of(QQ, 3, [[1, 1, 0], [0, 0, 1]])
    assert _contains(big, w) and not _contains(w, big)
    # membership solve
    assert {0: 2, 1: 2, 2: 5} in big
    assert {0: 1} not in big


def test_subspace_canonical_equality():
    # different spanning sets, same canonical basis
    a = span_of(QQ, 3, [[1, 1, 0], [2, 2, 2]])
    b = span_of(QQ, 3, [[3, 3, 1], [0, 0, 7]])
    assert a == b and a.basis == b.basis


def test_sparse_coordinates_round_trip():
    s = span_of(QQ, 3, [[1, 0, 2], [0, 1, -1]])
    v = {0: 3, 1: 4, 2: 2}
    coords = s.coordinates(v)
    assert coords is not None and _combination(s, coords) == v
    assert s.coordinates({2: 1}) is None


def test_inverse():
    m = [[1, 2], [3, 4]]
    inv = to_rows(_inverse(QQ, to_columns(m)), 2)
    assert matmul(QQ, inv, m) == [[1, 0], [0, 1]]
    assert _inverse(QQ, to_columns([[1, 2], [2, 4]])) is None


small_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def integer_matrices(draw):
    """Integer matrices up to 5 x 8, half of them of rank below both sides
    (a product through an inner dimension smaller than either)."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 8))
    if draw(st.booleans()) and min(rows, cols) > 1:
        inner = draw(st.integers(1, min(rows, cols) - 1))
        left = [[draw(small_entries) for _ in range(inner)] for _ in range(rows)]
        right = [[draw(small_entries) for _ in range(cols)] for _ in range(inner)]
        return [[sum(left[r][t] * right[t][c] for t in range(inner))
                 for c in range(cols)] for r in range(rows)]
    return [[draw(small_entries) for _ in range(cols)] for _ in range(rows)]


def small_matrices():
    return integer_matrices().map(
        lambda entries: [[Fraction(x) for x in row] for row in entries])


@st.composite
def square_matrices(draw):
    """Square integer matrices up to 6 x 6, half of them singular (a product
    through an inner dimension smaller than the side)."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()) and n > 1:
        inner = draw(st.integers(1, n - 1))
        left = [[draw(small_entries) for _ in range(inner)] for _ in range(n)]
        right = [[draw(small_entries) for _ in range(n)] for _ in range(inner)]
        return [[sum(left[r][t] * right[t][c] for t in range(inner))
                 for c in range(n)] for r in range(n)]
    return [[draw(small_entries) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["q", "fp:5"])
@settings(max_examples=80, deadline=None)
@given(entries=square_matrices())
def test_sparse_inverse_matches_the_dense_inverse(field, entries):
    m = [[field.parse(x) for x in row] for row in entries]
    got = _inverse(field, to_columns(m))
    expected = inverse(field, m)
    assert (got is None) == (expected is None)
    if expected is not None:
        assert got == to_columns(expected)
        # nonzero canonical scalars: a reduced residue, or an int unless a
        # denominator is needed
        assert all(x and field.reduce(x) == x and type(field.reduce(x)) is type(x)
                   for col in got for x in col.values())


@settings(max_examples=80, deadline=None)
@given(small_matrices())
def test_rank_nullity_against_sympy(m):
    sm = sympy.Matrix([[sympy.Rational(x) for x in row] for row in m])
    rank = sm.rank()
    assert _image(QQ, m).dim == rank
    assert _null(QQ, m).dim == len(m[0]) - rank
    # every reported kernel vector really solves m·x = 0
    for v in basis_of(_null(QQ, m)):
        assert not any(apply(QQ, m, v))
    # the full reduced echelon form, rows and pivots
    expected, pivots = sm.rref()
    rows, ours = _reduced(m, QQ)
    assert ours == list(pivots)
    assert rows == [tuple(Fraction(int(x.p), int(x.q)) for x in expected.row(r))
                    for r in range(rank)]


@pytest.mark.parametrize("p", [2, 5])
@settings(max_examples=80, deadline=None)
@given(entries=integer_matrices())
def test_rref_against_sympy_over_prime_fields(p, entries):
    domain = sympy.GF(p)
    dm = DomainMatrix([[domain(x) for x in row] for row in entries],
                      (len(entries), len(entries[0])), domain)
    expected, pivots = dm.rref()
    f = GF(p)
    rows, ours = _reduced([[f.parse(x) for x in row] for row in entries], f)
    assert ours == list(pivots)
    assert all(type(x) is int and 0 <= x < p for row in rows for x in row)
    assert ([list(row) for row in rows]
            == [[int(x) % p for x in row] for row in expected.to_list()[:len(pivots)]])


@settings(max_examples=40, deadline=None)
@given(small_matrices(), small_matrices())
def test_sum_intersection_dimension_formula(a, b):
    n = max(len(a[0]), len(b[0]))
    u = span_of(QQ, n, a)
    v = span_of(QQ, n, b)
    inter = intersect(u, v)
    assert (u + v).dim + inter.dim == u.dim + v.dim
    assert _contains(u, inter) and _contains(v, inter)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["q", "fp:5"])
@settings(max_examples=80, deadline=None)
@given(entries=integer_matrices(), data=st.data())
def test_sparse_coordinates_against_the_spanning_rows(field, entries, data):
    # half the vectors are combinations of the spanning rows, so inside the
    # subspace; the rest are drawn freely and may lie either side
    n = len(entries[0])
    span = span_of(field, n, [[field.parse(x) for x in row] for row in entries])
    rank = sympy.Matrix(entries).rank() if not field.characteristic else None
    if data.draw(st.booleans()):
        coeffs = data.draw(st.lists(small_entries, min_size=len(entries),
                                    max_size=len(entries)))
        vec = [sum(c * row[t] for c, row in zip(coeffs, entries)) for t in range(n)]
    else:
        vec = data.draw(st.lists(small_entries, min_size=n, max_size=n))
    vec = sparse(field.parse(x) for x in vec)
    got = span.coordinates(vec)
    assert (got is None) == (vec not in span)
    if rank is not None:
        inside = sympy.Matrix(entries + [list(dense(vec, n))]).rank() == rank
        assert (got is not None) == inside
    if got is not None:
        assert list(got) == sorted(got)
        assert _combination(span, got) == vec


def test_prime_field_reduction():
    f = GF(5)
    m = [[2, 1], [4, 2]]
    assert _null(f, m).dim == 1
    assert _image(f, m).dim == 1
    v, = basis_of(_null(f, m))
    assert all(type(x) is int and 0 <= x < 5 for x in v) and not any(apply(f, m, v))


def test_subspace_dimension_mismatch_rejected():
    u = Subspace(QQ, 2, {})
    v = Subspace(QQ, 3, {})
    with pytest.raises(ValueError):
        u + v


# ℚ scalars are ``int`` unless they need a denominator (see ``fields``); the
# one division, the pivot normalisation of ``_echelon``, must stay exact.

def _canonical_rational(x):
    """An exact rational in canonical form: an int, or a non-integral
    Fraction; never a float or a bool."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _from_sympy(x):
    return Fraction(int(x.p), int(x.q))


def _square_matrices():
    return st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n))


def test_rref_fractional_pivot_row():
    rows, pivots = _reduced([[2, 1]], QQ)
    assert pivots == [0]
    assert rows == [(1, Fraction(1, 2))]
    assert [type(x) for x in rows[0]] == [int, Fraction]


@settings(max_examples=80, deadline=None)
@given(entries=integer_matrices(), data=st.data())
def test_plain_int_rationals_stay_exact(entries, data):
    # the input entries are plain ints, as QQ.parse gives them
    sm = sympy.Matrix(entries)

    rows, pivots = _reduced(entries, QQ)
    expected, sym_pivots = sm.rref()
    assert pivots == list(sym_pivots)
    assert rows == [tuple(_from_sympy(x) for x in expected.row(r))
                    for r in range(len(pivots))]
    assert all(_canonical_rational(x) for row in rows for x in row)

    null = _null(QQ, entries)
    assert null == span_of(QQ, len(entries[0]),
                         [[_from_sympy(x) for x in v] for v in sm.nullspace()])
    assert all(_canonical_rational(x) for v in null.basis for x in v.values())

    square = data.draw(_square_matrices())
    inv = _inverse(QQ, to_columns(square))
    ssq = sympy.Matrix(square)
    if ssq.det() == 0:
        assert inv is None
    else:
        n = len(square)
        assert to_rows(inv, n) == [[_from_sympy(v) for v in ssq.inv().row(r)]
                                   for r in range(n)]
        assert all(_canonical_rational(v) for col in inv for v in col.values())


@pytest.mark.parametrize("row", [
    {0: -1, 1: 3, 3: -4},
    {1: 2, 2: -6, 3: 8},
    # a negative lead on negative entries, where ``//`` floors: exact here
    {0: -3, 1: -21, 2: 9, 3: -6},
], ids=["lead-1", "lead2", "lead-3"])
def test_a_pivot_that_divides_its_row_normalises_in_int(row):
    pivot = min(row)
    lead = row[pivot]
    reduced = _echelon([row], 0)
    assert reduced == {pivot: {k: QQ.reduce(Fraction(v, lead)) for k, v in row.items()}}
    assert all(type(x) is int for x in reduced[pivot].values())


def test_a_pivot_that_does_not_divide_one_entry_makes_a_fraction():
    reduced = _echelon([{0: -2, 1: 4, 2: 3}], 0)
    assert reduced == {0: {0: 1, 1: -2, 2: Fraction(-3, 2)}}
    assert [type(x) for x in reduced[0].values()] == [int, int, Fraction]


def test_echelon_stores_an_integral_update_as_an_int():
    # the first row normalises to b0 + b1/2 + b2/2, and clearing its b1 by
    # the second row leaves 1/2 - 3/2 = -1 at b2, made as a Fraction
    reduced = _echelon([{0: 2, 1: 1, 2: 1}, {1: 1, 2: 3}], 0)
    assert reduced == {0: {0: 1, 2: -1}, 1: {1: 1, 2: 3}}
    assert all(type(x) is int for row in reduced.values() for x in row.values())


def _canonical_in(field, x):
    """x is a canonical nonzero scalar of field: a residue in [0, p), or
    an int or a non-integral Fraction."""
    p = field.characteristic
    return x and (type(x) is int and 0 <= x < p if p else _canonical_rational(x))


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["q", "fp:5"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_elimination_returns_canonical_scalars(field, data):
    # every kernel of linalg hands out canonical scalars, so no caller
    # reduces what it reads from an echelon row
    entry = (st.integers(0, 4) if field.characteristic else
             st.fractions(-4, 4, max_denominator=3).map(QQ.reduce))
    n = data.draw(st.integers(1, 6))

    def rows(k):
        return data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                  min_size=1, max_size=k))
    a, b, square = rows(5), rows(5), rows(n)
    out = list(_echelon([sparse(r) for r in a], field.characteristic).values())
    if not field.characteristic:
        # integral rows whose leads are ±scale and divide them exactly: the
        # first pivot at least is normalised by ``//``
        def exact_row():
            pos = data.draw(st.integers(0, n - 1))
            tail = data.draw(st.lists(small_entries, min_size=n - pos - 1,
                                      max_size=n - pos - 1))
            return [0] * pos + [data.draw(st.sampled_from([-1, 1]))] + tail
        scale = data.draw(st.sampled_from([-3, -2, -1, 2, 3]))
        exact = [{k: scale * x for k, x in sparse(exact_row()).items()}
                 for _ in range(data.draw(st.integers(1, 4)))]
        reduced = _echelon(exact, 0)
        # the same rows as the ``Fraction`` route gives them
        assert reduced == _echelon([{k: Fraction(x) for k, x in r.items()}
                                    for r in exact], 0)
        out += reduced.values()
    out += Subspace.kernel(field, n, [sparse(r) for r in a]).basis
    if len(square) == n:
        out += _inverse(field, to_columns(square)) or []
    u, v = span_of(field, n, a), span_of(field, n, b)
    out += (u + v).basis
    assert all(_canonical_in(field, x) for vec in out for x in vec.values())
