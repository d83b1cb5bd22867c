from itertools import permutations

import pytest

from partialskew.errors import NoIdentity, NoInverse, NotAssociative
from partialskew.groups import cyclic, direct_product, make_group, symmetric


def test_trivial_and_z2():
    g1 = make_group([[0]])
    assert g1.order == 1 and g1.identity == 0

    z2 = make_group([[0, 1], [1, 0]])
    assert z2.inv(1) == 1 and z2.identity == 0


def test_symmetric_3_against_brute_force():
    # independent oracle: compose all 36 permutation pairs directly
    s3 = symmetric(3)
    assert s3.order == 6
    perms = sorted(permutations(range(3)))
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            composed = tuple(p[q[x]] for x in range(3))
            assert perms[s3.mul(i, j)] == composed
    assert s3.labels[s3.identity] == "012"


def _abelian(g):
    return all(g.mul(a, b) == g.mul(b, a) for a in range(g.order) for b in range(g.order))


def test_symmetric_3_nonabelian_witness():
    s3 = symmetric(3)
    witness = [(a, b) for a in range(s3.order) for b in range(s3.order)
               if s3.mul(a, b) != s3.mul(b, a)]
    assert witness, "expected a non-commuting pair"


def test_cyclic_inverses():
    c3 = cyclic(3)
    assert cyclic(1).order == 1
    # brute-force inverse scan: non-identity elements pair up
    for g in range(c3.order):
        if g != c3.identity:
            assert c3.inv(g) != g
    assert _abelian(c3)


def test_group_axioms_exhaustive():
    for g in (cyclic(4), symmetric(3), direct_product(cyclic(2), cyclic(3))):
        e = g.identity
        for a in range(g.order):
            assert g.mul(a, e) == a and g.mul(e, a) == a
            assert g.mul(a, g.inv(a)) == e
            assert g.inv(g.inv(a)) == a
            for b in range(g.order):
                for c in range(g.order):
                    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


def test_direct_product_order():
    g = direct_product(cyclic(2), symmetric(3))
    assert g.order == 12 and not _abelian(g)


def test_validation_errors():
    # left-translation table of a non-group magma: no identity
    with pytest.raises(NoIdentity):
        make_group([[1, 0], [0, 0]])
    # non-associative: a Latin square that is not a group (order 5 loop)
    loop = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    with pytest.raises(NotAssociative):
        make_group(loop)
    # entries out of range
    with pytest.raises(ValueError):
        make_group([[0, 1], [1, 2]])


def test_boolean_entries_and_repeated_labels_refused():
    # True == 1, so a boolean table would otherwise validate as Z/2
    with pytest.raises(ValueError, match="not an integer"):
        make_group([[0, True], [True, 0]])
    # labels name witnesses, so two elements may not print alike
    with pytest.raises(ValueError, match="repeated"):
        make_group([[0, 1], [1, 0]], ["a", "a"])
    with pytest.raises(ValueError, match="repeated"):
        make_group([[0, 1], [1, 0]], [1, "1"])
    with pytest.raises(ValueError, match="1 labels for 2 elements"):
        make_group([[0, 1], [1, 0]], ["e"])


def test_no_inverse_error():
    # associative monoid with absorbing element, not a group
    table = [[0, 1], [1, 1]]
    with pytest.raises(NoInverse):
        make_group(table)
