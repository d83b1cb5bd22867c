from functools import lru_cache
from pathlib import Path
import random

import pytest

from partialskew.actions import trivial_from_split
from partialskew.algebras import center_basis, product_of_fields
from partialskew.fields import QQ, parse_field
from partialskew.groups import cyclic
from partialskew.linalg import Subspace
from partialskew.scenarios import (build_action, build_algebra, build_group,
                                   bundled_fixtures, fixture_path,
                                   load_scenario, run_scenario)
from partialskew import skew as skew_module
from partialskew.skew import build_skew, grading_report, strong_grading_test

from corpus_helpers import global_swap_action, z3_restricted_action

# every bundled fixture and both benchmark documents
SCENARIOS = Path(__file__).resolve().parent.parent / "perfbench" / "scenarios"
SOURCES = ([fixture_path(name) for name in bundled_fixtures()]
           + sorted(SCENARIOS.glob("*.json")))


@lru_cache(maxsize=None)
def _skew(source, token):
    doc = load_scenario(source)
    field = parse_field(token)
    group = build_group(doc["group"])
    algebra = build_algebra(field, doc["algebra"]) if "algebra" in doc else None
    return build_skew(build_action(field, group, algebra, doc["action"]))


def test_s1_dimensions_and_basis(s1_skew):
    # sum of the ideal dimensions: 2 + 1
    assert s1_skew.dim == 3
    assert [c.dim for c in s1_skew.components] == [2, 1]
    assert s1_skew.algebra.unit == {0: 1, 1: 1}


def test_s1_products(s1_skew):
    alg = s1_skew.algebra
    mul = alg.mul
    g_gen = s1_skew.inject(1, {0: 1})       # (1,0) in the g component
    e0 = s1_skew.inject(0, {0: 1})
    e1 = s1_skew.inject(0, {1: 1})
    # ((1,0) at g)^2 = (1,0)(g·(1,0)) at e = (1,0) at e
    assert mul(g_gen, g_gen) == e0
    # annihilations across the split
    assert mul(e1, g_gen) == {}
    assert mul(g_gen, e1) == {}
    # unit law
    assert mul(alg.unit, g_gen) == g_gen


def test_grading_checks(s1_skew):
    results = grading_report(s1_skew)
    assert all(c.status == "pass" for c in results)


def test_grading_direct_sum_names_a_repeated_component(z3_action):
    # a fresh ring whose D_g1 is replaced by D_e: the component at g1 meets
    # the sum before it, and the sum stops at dim D_e + the remaining D_g
    skew = build_skew(z3_action)
    skew.components[1] = skew.components[0]
    got = next(c for c in grading_report(skew) if c.name == "grading.direct_sum")
    assert got.status == "fail"
    assert got.witnesses == [skew.group.label(1)]
    others = sum(c.dim for c in skew.components[2:])
    assert got.measured == {"total_dim": skew.components[0].dim + others, "dim": skew.dim}


def test_grading_direct_sum_names_a_label_the_components_miss(z3_action):
    # a fresh ring whose D_g1 loses its one basis vector: the sum is direct
    # but one short, and the first twisted-ring label outside it is named
    skew = build_skew(z3_action)
    missed = skew.components[1].basis[0]
    skew.components[1] = Subspace.span(skew.algebra.field, skew.dim, [])
    got = next(c for c in grading_report(skew) if c.name == "grading.direct_sum")
    assert (got.status, got.measured) == ("fail", {"total_dim": skew.dim - 1, "dim": skew.dim})
    (b,) = missed
    assert got.witnesses == [f"{skew.algebra.labels[b]} lies outside the sum of the components"]


def test_strong_grading_partial(s1_skew):
    st = strong_grading_test(s1_skew)
    # (g, g): D_g·D_g lies in D_g, a proper ideal of R_e = A
    assert st == {"strong": False, "global": False, "agree": True, "pair": (1, 1)}


def test_strong_grading_global():
    skew = build_skew(global_swap_action())
    st = strong_grading_test(skew)
    assert st == {"strong": True, "global": True, "agree": True, "pair": None}
    assert skew.dim == 4


def test_strong_grading_trivial_group():
    pa = trivial_from_split(product_of_fields(QQ, 1),
                            product_of_fields(QQ, 1), cyclic(1))
    skew = build_skew(pa)
    assert skew.dim == 2 and skew.components[0].dim == skew.dim
    assert strong_grading_test(skew) == {"strong": True, "global": True,
                                         "agree": True, "pair": None}


def test_strong_grading_restriction():
    skew = build_skew(z3_restricted_action())
    st = strong_grading_test(skew)
    assert st["strong"] is False and st["global"] is False and st["agree"]
    assert skew.dim == 4


def test_skew_is_group_ring_times_factor(s1_skew):
    # the split construction yields (group ring of the left factor) x right:
    # here Q[Z2] x Q, a commutative 3-dimensional algebra
    assert center_basis(s1_skew.algebra).dim == s1_skew.dim


def test_grade_round_trip(s1_skew):
    for idx, g in enumerate(s1_skew.grades):
        assert 0 <= idx - s1_skew.offsets[g] < s1_skew.action.ideals[g].dim
        assert s1_skew.inject(g, s1_skew.vectors[idx]) == {idx: 1}


@pytest.mark.parametrize("field", ["q", "fp:5"])
@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_layout_follows_the_echelon_bases(source, field):
    # index j is the j-th echelon row of the D_g taken in group order
    skew = _skew(source, field)
    bases = [list(ideal.basis) for ideal in skew.action.ideals]
    assert skew.offsets == [sum(map(len, bases[:g])) for g in range(len(bases))]
    assert skew.grades == tuple(g for g, basis in enumerate(bases) for _ in basis)
    assert skew.vectors == tuple(v for basis in bases for v in basis)
    assert len(skew.grades) == len(skew.vectors) == skew.dim


@pytest.mark.parametrize("field", ["q", "fp:5"])
@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_inject_reads_each_component_off_its_pivots(source, field):
    skew = _skew(source, field)
    F = parse_field(field)
    alg = skew.action.algebra
    one = F.one
    # every echelon row goes to the unit vector of its own basis index
    for j, (g, v) in enumerate(zip(skew.grades, skew.vectors)):
        assert skew.inject(g, v) == {j: one}
    rng = random.Random(f"{source.name} {field}")
    for g, ideal in enumerate(skew.action.ideals):
        rows = list(ideal.basis)
        # a random element of D_g, formed densely from chosen coefficients,
        # goes to those coefficients placed from offsets[g] on
        for _ in range(3):
            coeffs = [F.parse(rng.randrange(-3, 4)) for _ in rows]
            a = [0] * alg.dim
            for c, v in zip(coeffs, rows):
                for t, x in v.items():
                    a[t] += c * x
            a = F.sparse(dict(enumerate(a)))
            assert skew.inject(g, a) == {skew.offsets[g] + i: c
                                         for i, c in enumerate(coeffs) if c}
        # a basis vector of A outside D_g, alone or added to a row, is refused
        outside = [t for t in range(alg.dim) if {t: one} not in ideal]
        assert bool(outside) == (ideal.dim < alg.dim)
        for t in outside:
            assert skew.inject(g, {t: one}) is None
            if rows:
                assert skew.inject(g, F.sparse({**rows[0], t: rows[0].get(t, 0) + 1})) is None


def _planted_product_span(monkeypatch, planted):
    """Route ``strong_grading_test``'s component products through
    ``planted(skew, g, h, span)``, ``span`` being the true R_g·R_h."""
    true_span = skew_module.component_product_span
    monkeypatch.setattr(skew_module, "component_product_span",
                        lambda skew, g, h: planted(skew, g, h, true_span(skew, g, h)))


@pytest.mark.parametrize("pair, labels", [((0, 1), "g=e, h=g"),
                                          ((1, 0), "g=g, h=e"),
                                          ((1, 1), "g=g, h=g")])
def test_strong_iff_global_names_the_short_product(monkeypatch, pair, labels):
    # on a global action, R_g·R_h = R_gh for every pair; plant one product
    # that spans nothing, and the check names that pair
    def planted(skew, g, h, span):
        if (g, h) != pair:
            return span
        return Subspace.span(skew.algebra.field, skew.dim, [])

    _planted_product_span(monkeypatch, planted)
    report = run_scenario(fixture_path("global_z2_swap.json"), suites=["grading"])
    c = report.named("grading.strong_iff_global")
    assert c.status == "fail"
    assert c.measured == {"strong": False, "global": True}
    assert c.witnesses == [f"global, but R_g·R_h misses R_gh at ({labels})"]


@pytest.mark.parametrize("name, label", [("s1.json", "g"), ("z3_restrict.json", "g1")])
def test_strong_iff_global_names_a_proper_ideal(monkeypatch, name, label):
    # make every product exhaust its target: the grading reads strong, and
    # the check names the first g whose ideal D_g is not A
    _planted_product_span(
        monkeypatch, lambda skew, g, h, span: skew.components[skew.group.mul(g, h)])
    report = run_scenario(fixture_path(name), suites=["grading"])
    c = report.named("grading.strong_iff_global")
    assert c.status == "fail"
    assert c.measured == {"strong": True, "global": False}
    assert c.witnesses == [f"strongly graded, but D_g != A at g={label}"]
