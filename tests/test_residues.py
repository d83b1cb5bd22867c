"""The F_p kernels against the wrapper arithmetic of ``fp_oracle``.

An F_p scalar is a canonical residue in ``[0, p)``; the kernels that multiply
and add scalars reduce once per output coefficient.  Here each kernel runs on
random sparse tables and vectors, with inputs drawn as arbitrary
representatives (negative ints, multiples of p), and must agree with the same
computation done in ``PrimeFieldElement`` arithmetic and return only
residues.  p = 2⁶¹ - 1 makes products of residues pass 2⁶⁴.
"""

from fractions import Fraction
import re

from hypothesis import given, settings, strategies as st
import pytest

from partialskew.algebras import (AlgebraMap, StructureAlgebra, _lincomb,
                                  make_algebra, product_of_fields)
from partialskew.fields import GF, QQ
from partialskew.linalg import Mat, Subspace, vadd, vscale, vsub

from corpus_helpers import mapping_rows
from fp_oracle import unwrap, wrap

PRIMES = (2, 5, 7, 2**61 - 1)


def representatives(p):
    """Any int standing for an element of F_p, often non-canonical."""
    return st.one_of(st.integers(0, p - 1), st.integers(-3 * p, 3 * p),
                     st.integers(-3, 3).map(lambda m: m * p))


@st.composite
def instances(draw):
    """(field, table, x, y, c): a random sparse table of nonzero residues
    on d basis vectors, and two coefficient vectors and a scalar of
    arbitrary representatives."""
    p = draw(st.sampled_from(PRIMES))
    d = draw(st.integers(1, 4))
    residue = st.integers(1, p - 1)

    def cell():
        return draw(st.dictionaries(st.integers(0, d - 1), residue, max_size=d))

    table = [[tuple(sorted(cell().items())) for _ in range(d)] for _ in range(d)]
    vec = st.lists(representatives(p), min_size=d, max_size=d)
    return GF(p), table, draw(vec), draw(vec), draw(representatives(p))


def _residues(xs, p):
    return all(type(x) is int and 0 <= x < p for x in xs)


def _oracle_mul(field, table, x, y):
    """The dense product x·y, every operation in the wrapper arithmetic."""
    d = len(table)
    out = [wrap(field, 0)] * d
    for i in range(d):
        for j in range(d):
            for k, v in table[i][j]:
                out[k] = out[k] + wrap(field, x[i]) * y[j] * v
    return tuple(unwrap(v) for v in out)


def _sparse(vec):
    return {k: v for k, v in enumerate(vec) if v}


@settings(max_examples=150, deadline=None)
@given(instances())
def test_product_kernels_match_wrapper_route(inst):
    field, table, x, y, _ = inst
    p = field.p
    alg = StructureAlgebra(field, mapping_rows(table), None)
    want = _oracle_mul(field, table, x, y)

    got = alg.mul_vec(x, y)
    assert got == want and _residues(got, p)
    sparse = alg._mul_sparse(_sparse(x), _sparse(y))
    assert sparse == _sparse(want) and _residues(sparse.values(), p)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_linear_kernels_match_wrapper_route(inst):
    field, _, x, y, c = inst
    p = field.p
    wx, wy, wc = ([wrap(field, v) for v in x], [wrap(field, v) for v in y],
                  wrap(field, c))

    for got, want in ((vadd(field, x, y), [a + b for a, b in zip(wx, wy)]),
                      (vsub(field, x, y), [a - b for a, b in zip(wx, wy)]),
                      (vscale(field, c, x), [wc * a for a in wx])):
        assert got == tuple(unwrap(v) for v in want) and _residues(got, p)

    comb = _lincomb(field, [(c, _sparse(x)), (x[0], _sparse(y))])
    want = [wc * a + wx[0] * b for a, b in zip(wx, wy)]
    assert comb == _sparse(unwrap(v) for v in want)
    assert _residues(comb.values(), p)


# -- scalars from the Python API -------------------------------------------
# ``Mat``, ``Subspace.from_vectors`` and algebra elements take any
# int representative over F_p and reduce it on the way in, and an int or a
# Fraction over Q; anything else is refused, naming the scalar.

def test_kernel_of_a_non_canonical_matrix():
    # 5 is 0 in F_5, so the one equation is x_1 = 0
    assert Subspace.kernel_from_sparse(GF(5), 2, [{0: 5, 1: 1}]).basis == ((1, 0),)


def test_matrices_compare_as_residues():
    assert Mat(GF(5), [[7]]) == Mat(GF(5), [[2]])
    assert Mat(GF(5), [[-3, 10]]).entries == ((2, 0),)
    assert Subspace.from_vectors(GF(5), 2, [(5, 6)]).basis == ((0, 1),)
    assert Subspace.from_vectors(GF(5), 2, [(10, 3), (-1, 0)]).basis == ((1, 0), (0, 1))


def test_element_scalar_products_are_residues():
    kk = product_of_fields(GF(5), 2)
    one = kk.one()
    assert (one * -3).coeffs == (2, 2) and (7 * one).coeffs == (2, 2)
    assert kk.element([5, -1]).coeffs == (0, 4)
    with pytest.raises(ValueError, match=r"Fraction\(1, 2\)"):
        one * Fraction(1, 2)
    half = product_of_fields(QQ, 2).one() * Fraction(1, 2)
    assert half.coeffs == (Fraction(1, 2), Fraction(1, 2))


API_BUILDS = [
    lambda f, x: Mat(f, [[1, x]]),
    lambda f, x: Subspace.from_vectors(f, 2, [(1, x)]),
    lambda f, x: product_of_fields(f, 2).element([1, x]),
    lambda f, x: x * product_of_fields(f, 2).one(),
    lambda f, x: AlgebraMap(product_of_fields(f, 2), product_of_fields(f, 2),
                            [{0: 1}, {1: x}]),
]


@pytest.mark.parametrize("build", API_BUILDS)
@pytest.mark.parametrize("scalar", [Fraction(1, 2), Fraction(2), 1.0, True])
def test_non_int_scalars_refused_over_fp(build, scalar):
    with pytest.raises(ValueError, match=re.escape(f"scalar {scalar!r} is not an int")):
        build(GF(5), scalar)


@pytest.mark.parametrize("build", API_BUILDS)
@pytest.mark.parametrize("scalar", [1.0, 0.5, True, False, "1"])
def test_inexact_scalars_refused_over_q(build, scalar):
    with pytest.raises(ValueError, match=re.escape(
            f"scalar {scalar!r} is not an exact rational (an int or a Fraction)")):
        build(QQ, scalar)



@pytest.mark.parametrize("build", [
    lambda x: make_algebra(QQ, [{0: ((0, x),)}], [1]),
    lambda x: make_algebra(QQ, [[((0, x),)]], [1]),
    lambda x: make_algebra(QQ, [{0: ((0, 1),)}], [x])], ids=["row", "cells", "unit"])
@pytest.mark.parametrize("scalar", [1.0, 0.5, True, "1"])
def test_make_algebra_refuses_inexact_constants_over_q(build, scalar):
    # the shape pass refuses them as the F_p one refuses a non-residue
    with pytest.raises(ValueError, match=re.escape(
            f"scalar {scalar!r} is not an exact rational (an int or a Fraction)")):
        build(scalar)
    assert build(Fraction(1)).unit == (1,)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["q", "fp:5"])
def test_algebra_map_columns_are_canonical_with_int_rows(field):
    kk = product_of_fields(field, 2)
    phi = AlgebraMap(kk, kk, [{0: 6, 1: 0}, {1: -1}])
    assert phi.columns == ([{0: 1}, {1: 4}] if field.characteristic else
                           [{0: 6}, {1: -1}])
    assert AlgebraMap(kk, kk, [{0: 5}, {}]).columns == ([{}, {}] if field.characteristic
                                                         else [{0: 5}, {}])
    for row in (0.0, True, -1, 2):
        with pytest.raises(ValueError, match=r"index outside 0\.\.1"):
            AlgebraMap(kk, kk, [{row: 1}, {1: 1}])
