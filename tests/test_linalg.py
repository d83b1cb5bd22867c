from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from partialskew.fields import GF, QQ
from partialskew.linalg import (Mat, Subspace, image_basis, kernel_basis, rref,
                                solve)

from corpus_helpers import qmat, qvec


def test_kernel_examples():
    # zero 1x1: everything is in the kernel
    assert kernel_basis(qmat([[0]])).basis == (qvec([1]),)
    # identity: nothing is
    assert kernel_basis(Mat.identity(QQ, 2)).dim == 0
    # hand row reduction: x + y = 0
    assert kernel_basis(qmat([[1, 1], [2, 2]])).basis == (qvec([1, -1]),)


def test_image_examples():
    assert image_basis(Mat.zeros(QQ, 3, 3)).dim == 0
    assert image_basis(Mat.identity(QQ, 4)).is_full()
    assert image_basis(qmat([[1, 2], [2, 4]])).basis == (qvec([1, 2]),)


def test_solve_examples():
    ident = Mat.identity(QQ, 3)
    b = qvec([1, 2, 3])
    assert solve(ident, b) == b
    assert solve(Mat.zeros(QQ, 2, 2), qvec([1, 0])) is None
    assert solve(qmat([[2, 0], [0, 3]]), qvec([4, 6])) == qvec([2, 2])
    # underdetermined but consistent
    x = solve(qmat([[1, 1]]), qvec([5]))
    assert x is not None and x[0] + x[1] == Fraction(5)


def test_subspace_ops():
    full = Subspace.full(QQ, 2)
    assert full == full
    u = Subspace.from_vectors(QQ, 2, [qvec([1, 0])])
    v = Subspace.from_vectors(QQ, 2, [qvec([0, 1])])
    assert u.intersect(v).is_zero()
    assert (u + v).is_full()

    w = Subspace.from_vectors(QQ, 3, [qvec([1, 1, 0])])
    big = Subspace.from_vectors(QQ, 3, [qvec([1, 1, 0]), qvec([0, 0, 1])])
    assert big.contains(w) and not w.contains(big)
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
    assert coords is not None and s.linear_combination(coords) == v
    assert s.coordinates_of(qvec([0, 0, 1])) is None


def test_inverse():
    m = qmat([[1, 2], [3, 4]])
    inv = m.inverse()
    assert inv @ m == Mat.identity(QQ, 2)
    assert qmat([[1, 2], [2, 4]]).inverse() is None


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


@settings(max_examples=80, deadline=None)
@given(small_matrices())
def test_rank_nullity_against_sympy(m):
    sm = sympy.Matrix([[sympy.Rational(x) for x in row] for row in m.entries])
    rank = sm.rank()
    assert image_basis(m).dim == rank
    assert kernel_basis(m).dim == m.cols - rank
    # every reported kernel vector really solves m·x = 0
    for v in kernel_basis(m).basis:
        assert not any(m.apply(v))
    # the full reduced echelon form, rows and pivots
    expected, pivots = sm.rref()
    rows, ours = rref(m.entries, QQ)
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
    rows, ours = rref([[f.from_int(x) for x in row] for row in entries], f)
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
    assert u.contains(inter) and v.contains(inter)


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
        assert span.linear_combination(dense) == vec


def test_prime_field_reduction():
    f = GF(5)
    m = Mat(f, [[f.from_int(2), f.from_int(1)], [f.from_int(4), f.from_int(2)]])
    assert kernel_basis(m).dim == 1
    assert image_basis(m).dim == 1
    sol = solve(m, (f.from_int(1), f.from_int(2)))
    assert sol is not None and m.apply(sol) == (f.from_int(1), f.from_int(2))


def test_subspace_dimension_mismatch_rejected():
    u = Subspace.full(QQ, 2)
    v = Subspace.full(QQ, 3)
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
    rows, pivots = rref([[2, 1]], QQ)
    assert pivots == [0]
    assert rows == [(1, Fraction(1, 2))]
    assert [type(x) for x in rows[0]] == [int, Fraction]


@settings(max_examples=80, deadline=None)
@given(entries=integer_matrices(), data=st.data())
def test_plain_int_rationals_stay_exact(entries, data):
    # the input entries are plain ints, as QQ.parse and QQ.from_int give them
    m = Mat(QQ, entries)
    sm = sympy.Matrix(entries)

    rows, pivots = rref(entries, QQ)
    expected, sym_pivots = sm.rref()
    assert pivots == list(sym_pivots)
    assert rows == [tuple(_from_sympy(x) for x in expected.row(r))
                    for r in range(len(pivots))]
    assert all(_canonical_rational(x) for row in rows for x in row)

    kernel = kernel_basis(m)
    assert kernel == Subspace.from_vectors(
        QQ, m.cols, [tuple(_from_sympy(x) for x in v) for v in sm.nullspace()])
    assert all(_canonical_rational(x) for v in kernel.basis for x in v)

    b = data.draw(st.lists(small_entries, min_size=m.rows, max_size=m.rows))
    x = solve(m, b)
    if sm.rank() != sm.row_join(sympy.Matrix(b)).rank():
        assert x is None
    else:
        sol, params = sm.gauss_jordan_solve(sympy.Matrix(b))
        particular = sol.subs({t: 0 for t in params})
        assert x == tuple(_from_sympy(v) for v in particular)
        assert all(_canonical_rational(v) for v in x)

    square = data.draw(_square_matrices())
    inv = Mat(QQ, square).inverse()
    ssq = sympy.Matrix(square)
    if ssq.det() == 0:
        assert inv is None
    else:
        assert inv.entries == tuple(tuple(_from_sympy(v) for v in ssq.inv().row(r))
                                    for r in range(len(square)))
        assert all(_canonical_rational(v) for row in inv.entries for v in row)
