"""``StructureAlgebra.multiples`` against products formed one by one.

The table of x times every basis vector, left and right, is compared with
``dense_oracle.multiply`` on the algebra, the twisted ring and the smash
product of every bundled fixture and on M₂(k), over ℚ and F_5, for x the
unit, every 1_g (placed in the ring and the smash at the identity) and three
seeded random vectors.  A right-multiples call builds no column index: on a
matrix algebra that index would stay cached for the rest of the run.
"""

from functools import lru_cache
import random

import pytest

from partialskew.algebras import field_algebra, make_algebra
from partialskew.constructions import matrix_algebra
from partialskew.duality import _pierce_corner, build_duality
from partialskew.fields import QQ, parse_field
from partialskew.scenarios import (build_action, build_algebra, build_group,
                                   bundled_fixtures, fixture_path,
                                   load_scenario)
from partialskew.skew import build_skew
from partialskew.smash import build_smash

from dense_oracle import dense, multiply, sparse, unit_vector

FIELDS = ("q", "fp:5")


@lru_cache(maxsize=None)
def _smash(name, token):
    doc = load_scenario(fixture_path(name))
    field = parse_field(token)
    group = build_group(doc["group"])
    algebra = build_algebra(field, doc["algebra"]) if "algebra" in doc else None
    return build_smash(build_skew(build_action(field, group, algebra, doc["action"])))


def _random_vectors(alg, rng):
    """Three random sparse vectors of alg, each with up to four terms."""
    field = alg.field
    return [field.sparse({rng.randrange(alg.dim): rng.randint(-3, 3)
                          for _ in range(rng.randint(1, 4))}) for _ in range(3)]


def _assert_multiples(alg, x):
    d = alg.dim
    dx = dense(x, d)
    basis = [unit_vector(d, b) for b in range(d)]
    for left in (True, False):
        products = [multiply(alg, e, dx) if left else multiply(alg, dx, e) for e in basis]
        want = {b: sparse(p) for b, p in enumerate(products) if any(p)}
        table = alg.multiples(x, left)
        assert table == want
        assert all(table.values())


def _layers(name, token):
    """(algebra, [x]) for the base algebra, the twisted ring and the smash
    of a fixture: the unit and every 1_g, placed at the identity."""
    smash = _smash(name, token)
    skew = smash.skew
    pa = skew.action
    at_e = [skew.inject(pa.group.identity, e) for e in pa.idempotents]
    return [(pa.algebra, [pa.algebra.unit, *pa.idempotents]),
            (skew.algebra, [skew.algebra.unit, *at_e]),
            (smash.algebra, [smash.algebra.unit,
                             *map(smash.embed_skew_map.apply, at_e)])]


@pytest.mark.parametrize("token", FIELDS)
@pytest.mark.parametrize("name", bundled_fixtures())
def test_multiples_match_products_on_every_layer(name, token):
    rng = random.Random(f"{name} {token}")
    for alg, xs in _layers(name, token):
        for x in xs + _random_vectors(alg, rng):
            _assert_multiples(alg, x)


@pytest.mark.parametrize("token", FIELDS)
def test_multiples_match_products_on_m2(token):
    m2 = matrix_algebra(field_algebra(parse_field(token)), 2)
    rng = random.Random(f"M2 {token}")
    for x in [m2.unit, {m2.slot(0, 0, 0): 1}] + _random_vectors(m2, rng):
        _assert_multiples(m2, x)


@pytest.mark.parametrize("token", FIELDS)
def test_multiples_reduce_each_coefficient(token):
    # k[x]/(x² - x - 1) on (1, x): x·(a + c·x) = c + (a + c)·x sums two
    # products into one coefficient, which over F_5 must come out reduced
    field = parse_field(token)
    fib = make_algebra(field, [{0: [(0, 1)], 1: [(1, 1)]}, {0: [(1, 1)], 1: [(0, 1), (1, 1)]}],
                       {0: 1})
    x = {0: 4, 1: 4}
    _assert_multiples(fib, x)
    assert fib.multiples(x)[1] == {0: 4, 1: field.reduce(8)}
    assert fib.multiples(x, left=False) == fib.multiples(x)


def test_right_multiples_build_no_column_index():
    m2 = matrix_algebra(field_algebra(QQ), 2)
    e00 = {m2.slot(0, 0, 0): 1}
    assert m2.multiples(e00, left=False) == {m2.slot(0, 0, 0): e00,
                                             m2.slot(0, 1, 0): {m2.slot(0, 1, 0): 1}}
    assert "column_index" not in m2.__dict__
    m2.multiples(e00)
    assert "column_index" in m2.__dict__


@pytest.mark.parametrize("name", bundled_fixtures())
def test_pierce_corner_builds_no_column_index(name):
    d = build_duality(_smash(name, "q"))
    mat = matrix_algebra(d.mat.base, d.mat.group)
    assert _pierce_corner(mat, d.corner_idempotent) == d.image
    assert "column_index" not in mat.__dict__
