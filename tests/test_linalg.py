from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from partialskew.fields import GF, QQ
from partialskew.linalg import Mat, Subspace, _dense, _echelon, _inverse, _sparse

from corpus_helpers import column_matrix, qmat, qvec
from dense_oracle import apply, inverse, matmul


def _kernel(m):
    """The solution space of m·x = 0."""
    return Subspace.kernel_from_sparse(m.field, m.cols, [dict(enumerate(r)) for r in m.entries])


def _image(m):
    """The column space of m."""
    return Subspace.from_vectors(m.field, m.rows, list(zip(*m.entries)))


def _reduced(rows, field):
    """The reduced row echelon form of dense rows by ``_echelon``, as
    (dense rows, pivot columns)."""
    reduced = _echelon([_sparse(field.scalars(r)) for r in rows], field.characteristic)
    return [_dense(r, field, len(rows[0])) for r in reduced.values()], list(reduced)


def _contains(big, small):
    return all(big.contains_vector(v) for v in small.basis)


def _combination(span, coords):
    """The vector with coordinates ``coords`` on the echelon basis of span."""
    return span.field.vector(sum(c * b[t] for c, b in zip(coords, span.basis))
                             for t in range(span.ambient))


def test_kernel_examples():
    # zero 1x1: everything is in the kernel
    assert _kernel(qmat([[0]])).basis == (qvec([1]),)
    # identity: nothing is
    assert _kernel(Mat.identity(QQ, 2)).dim == 0
    # hand row reduction: x + y = 0
    assert _kernel(qmat([[1, 1], [2, 2]])).basis == (qvec([1, -1]),)


def test_image_examples():
    assert _image(qmat([[0] * 3] * 3)).dim == 0
    assert _image(Mat.identity(QQ, 4)).dim == 4
    assert _image(qmat([[1, 2], [2, 4]])).basis == (qvec([1, 2]),)


def test_subspace_ops():
    u = Subspace.from_vectors(QQ, 2, [qvec([1, 0])])
    v = Subspace.from_vectors(QQ, 2, [qvec([0, 1])])
    assert u.intersect(v).is_zero()
    assert (u + v).dim == 2 and u + v == v + u

    w = Subspace.from_vectors(QQ, 3, [qvec([1, 1, 0])])
    big = Subspace.from_vectors(QQ, 3, [qvec([1, 1, 0]), qvec([0, 0, 1])])
    assert _contains(big, w) and not _contains(w, big)
    # membership solve
    assert big.contains_vector(qvec([2, 2, 5]))
    assert not big.contains_vector(qvec([1, 0, 0]))


def test_subspace_canonical_equality():
    # different spanning sets, same canonical basis
    a = Subspace.from_vectors(QQ, 3, [qvec([1, 1, 0]), qvec([2, 2, 2])])
    b = Subspace.from_vectors(QQ, 3, [qvec([3, 3, 1]), qvec([0, 0, 7])])
    assert a == b and a.basis == b.basis


def test_coordinates_of_round_trip():
    s = Subspace.from_vectors(QQ, 3, [qvec([1, 0, 2]), qvec([0, 1, -1])])
    v = qvec([3, 4, 2])
    coords = s.coordinates_of(v)
    assert coords is not None and _combination(s, coords) == v
    assert s.coordinates_of(qvec([0, 0, 1])) is None


def test_inverse():
    m = qmat([[1, 2], [3, 4]])
    inv = column_matrix(QQ, _inverse(QQ, m.sparse_columns()), 2)
    assert matmul(inv, m) == Mat.identity(QQ, 2)
    assert _inverse(QQ, qmat([[1, 2], [2, 4]]).sparse_columns()) is None


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
        lambda entries: Mat(QQ, [[Fraction(x) for x in row] for row in entries]))


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
    m = Mat(field, entries)
    got = _inverse(field, m.sparse_columns())
    expected = inverse(m)
    assert (got is None) == (expected is None)
    if expected is not None:
        assert got == expected.sparse_columns()
        # nonzero canonical scalars: a reduced residue, or an int unless a
        # denominator is needed
        assert all(x and field.reduce(x) == x and type(field.reduce(x)) is type(x)
                   for col in got for x in col.values())


@settings(max_examples=80, deadline=None)
@given(small_matrices())
def test_rank_nullity_against_sympy(m):
    sm = sympy.Matrix([[sympy.Rational(x) for x in row] for row in m.entries])
    rank = sm.rank()
    assert _image(m).dim == rank
    assert _kernel(m).dim == m.cols - rank
    # every reported kernel vector really solves m·x = 0
    for v in _kernel(m).basis:
        assert not any(apply(m, v))
    # the full reduced echelon form, rows and pivots
    expected, pivots = sm.rref()
    rows, ours = _reduced(m.entries, QQ)
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
    rows, ours = _reduced([[f.from_int(x) for x in row] for row in entries], f)
    assert ours == list(pivots)
    assert all(type(x) is int and 0 <= x < p for row in rows for x in row)
    assert ([list(row) for row in rows]
            == [[int(x) % p for x in row] for row in expected.to_list()[:len(pivots)]])


@settings(max_examples=40, deadline=None)
@given(small_matrices(), small_matrices())
def test_sum_intersection_dimension_formula(a, b):
    n = max(a.cols, b.cols)
    u = Subspace.from_vectors(QQ, n, [tuple(r) + (QQ.zero,) * (n - a.cols)
                                      for r in a.entries])
    v = Subspace.from_vectors(QQ, n, [tuple(r) + (QQ.zero,) * (n - b.cols)
                                      for r in b.entries])
    inter = u.intersect(v)
    assert (u + v).dim + inter.dim == u.dim + v.dim
    assert _contains(u, inter) and _contains(v, inter)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["q", "fp:5"])
@settings(max_examples=80, deadline=None)
@given(entries=integer_matrices(), data=st.data())
def test_sparse_coordinates_agree_with_coordinates_of(field, entries, data):
    # half the vectors are combinations of the spanning rows, so inside the
    # subspace; the rest are drawn freely and may lie either side
    n = len(entries[0])
    span = Subspace.from_vectors(field, n, [[field.from_int(x) for x in row]
                                            for row in entries])
    if data.draw(st.booleans()):
        coeffs = data.draw(st.lists(small_entries, min_size=len(entries),
                                    max_size=len(entries)))
        vec = [sum(c * row[t] for c, row in zip(coeffs, entries)) for t in range(n)]
    else:
        vec = data.draw(st.lists(small_entries, min_size=n, max_size=n))
    vec = tuple(field.from_int(x) for x in vec)
    dense = span.coordinates_of(vec)
    got = span.sparse_coordinates({t: x for t, x in enumerate(vec) if x})
    assert (got is None) == (dense is None) == (not span.contains_vector(vec))
    if dense is not None:
        assert got == {i: c for i, c in enumerate(dense) if c}
        assert list(got) == sorted(got)
        assert _combination(span, dense) == vec


def test_prime_field_reduction():
    f = GF(5)
    m = Mat(f, [[f.from_int(2), f.from_int(1)], [f.from_int(4), f.from_int(2)]])
    assert _kernel(m).dim == 1
    assert _image(m).dim == 1
    v, = _kernel(m).basis
    assert all(type(x) is int and 0 <= x < 5 for x in v) and not any(apply(m, v))


def test_subspace_dimension_mismatch_rejected():
    u = Subspace.zero(QQ, 2)
    v = Subspace.zero(QQ, 3)
    with pytest.raises(ValueError):
        u.intersect(v)


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
    # the input entries are plain ints, as QQ.parse and QQ.from_int give them
    m = Mat(QQ, entries)
    sm = sympy.Matrix(entries)

    rows, pivots = _reduced(entries, QQ)
    expected, sym_pivots = sm.rref()
    assert pivots == list(sym_pivots)
    assert rows == [tuple(_from_sympy(x) for x in expected.row(r))
                    for r in range(len(pivots))]
    assert all(_canonical_rational(x) for row in rows for x in row)

    kernel = _kernel(m)
    assert kernel == Subspace.from_vectors(
        QQ, m.cols, [tuple(_from_sympy(x) for x in v) for v in sm.nullspace()])
    assert all(_canonical_rational(x) for v in kernel.basis for x in v)

    square = data.draw(_square_matrices())
    inv = _inverse(QQ, Mat(QQ, square).sparse_columns())
    ssq = sympy.Matrix(square)
    if ssq.det() == 0:
        assert inv is None
    else:
        n = len(square)
        assert column_matrix(QQ, inv, n).entries == tuple(
            tuple(_from_sympy(v) for v in ssq.inv().row(r)) for r in range(n))
        assert all(_canonical_rational(v) for col in inv for v in col.values())
