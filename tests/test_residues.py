"""The F_p kernels against the wrapper arithmetic of ``fp_oracle``.

An F_p scalar is a canonical residue in ``[0, p)``; the kernels that multiply
and add scalars reduce once per output coefficient.  Here each kernel runs on
random sparse tables and vectors, with inputs drawn as arbitrary
representatives (negative ints, multiples of p), and must agree with the same
computation done in ``PrimeFieldElement`` arithmetic and return only
residues.  p = 2⁶¹ - 1 makes products of residues pass 2⁶⁴.
"""

from hypothesis import given, settings, strategies as st

from partialskew.algebras import StructureAlgebra, _lincomb
from partialskew.fields import GF
from partialskew.linalg import Mat, vadd, vscale, vsub

from fp_oracle import unwrap, wrap

PRIMES = (2, 5, 7, 2**61 - 1)


def representatives(p):
    """Any int standing for an element of F_p, often non-canonical."""
    return st.one_of(st.integers(0, p - 1), st.integers(-3 * p, 3 * p),
                     st.integers(-3, 3).map(lambda m: m * p))


@st.composite
def instances(draw):
    """(field, table, x, y, c, mat): a random sparse table of nonzero
    residues on d basis vectors, two coefficient vectors and a scalar of
    arbitrary representatives, and a d×d matrix of them."""
    p = draw(st.sampled_from(PRIMES))
    d = draw(st.integers(1, 4))
    residue = st.integers(1, p - 1)

    def cell():
        return draw(st.dictionaries(st.integers(0, d - 1), residue, max_size=d))

    table = [[tuple(sorted(cell().items())) for _ in range(d)] for _ in range(d)]
    vec = st.lists(representatives(p), min_size=d, max_size=d)
    mat = draw(st.lists(vec, min_size=d, max_size=d))
    return GF(p), table, draw(vec), draw(vec), draw(representatives(p)), mat


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
    field, table, x, y, _, _ = inst
    p, d = field.p, len(table)
    alg = StructureAlgebra(field, table, None)
    want = _oracle_mul(field, table, x, y)

    got = alg.mul_vec(x, y)
    assert got == want and _residues(got, p)
    sparse = alg._mul_sparse(_sparse(x), _sparse(y))
    assert sparse == _sparse(want) and _residues(sparse.values(), p)
    for i in range(d):
        e = [int(k == i) for k in range(d)]
        got = alg._basis_times_vec(i, y)
        assert got == _oracle_mul(field, table, e, y) and _residues(got, p)
        got = alg._vec_times_basis(x, i)
        assert got == _oracle_mul(field, table, x, e) and _residues(got, p)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_linear_kernels_match_wrapper_route(inst):
    field, _, x, y, c, m = inst
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

    mat = Mat(field, m)
    wm = [[wrap(field, v) for v in row] for row in m]
    got = mat.apply(x)
    want = [sum((a * b for a, b in zip(row, wx)), wrap(field, 0)) for row in wm]
    assert got == tuple(unwrap(v) for v in want) and _residues(got, p)

    prod = mat @ Mat(field, [y] * len(m))
    want = [[sum((row[k] * wy[j] for k in range(len(m))), wrap(field, 0))
             for j in range(len(y))] for row in wm]
    assert prod.entries == tuple(tuple(unwrap(v) for v in row) for row in want)
    assert all(_residues(row, p) for row in prod.entries)
