from fractions import Fraction

import pytest

from partialskew.algebras import center_basis
from partialskew.duality import build_duality
from partialskew.errors import ParseError
from partialskew.fields import GF, QQ
from partialskew.report import SKIPPED
from partialskew.scenarios import (EXPECT_KEYS, build_action, build_algebra,
                                   build_group, bundled_fixtures, fixture_path,
                                   load_scenario, run_scenario)
from partialskew.skew import build_skew
from partialskew.smash import build_smash


def test_group_spec_dispatch():
    assert build_group({"cyclic": 4}).order == 4
    assert build_group({"symmetric": 3}).order == 6
    prod = build_group({"direct_product": [{"cyclic": 2}, {"cyclic": 3}]})
    assert prod.order == 6
    assert all(prod.mul(a, b) == prod.mul(b, a) for a in range(6) for b in range(6))
    explicit = build_group({"table": [[0, 1], [1, 0]], "labels": ["e", "t"]})
    assert explicit.labels == ("e", "t")
    with pytest.raises(ParseError):
        build_group({"dihedral": 4})
    with pytest.raises(ParseError):
        build_group({"direct_product": [{"cyclic": 2}]})


def test_algebra_spec_dispatch():
    assert build_algebra(QQ, {"product_of_fields": 3}).dim == 3
    assert build_algebra(QQ, {"matrix": {"size": 3}}).dim == 9
    prod = build_algebra(QQ, {"direct_product": [
        {"matrix": {"size": 2}}, {"product_of_fields": 1}]})
    assert prod.dim == 5
    explicit = build_algebra(GF(5), {
        "constants": [[[1, 0], [0, 1]], [[0, 1], [2, 0]]],
        "unit": [1, 0],
    })
    assert explicit.dim == 2
    with pytest.raises(ParseError):
        build_algebra(QQ, {"quaternions": True})
    with pytest.raises(ParseError):
        build_algebra(QQ, {"product_of_fields": 0})
    with pytest.raises(ParseError):
        build_algebra(QQ, {"constants": [[[0.5]]], "unit": [1]})


def test_scenario_dict_source():
    # run_scenario also accepts an already-parsed document
    report = run_scenario({
        "name": "inline",
        "group": {"cyclic": 2},
        "action": {"trivial_split": {"left": {"product_of_fields": 1},
                                     "right": {"product_of_fields": 1}}},
        "suites": ["lemma1", "grading"],
        "expect": {"skew_dimension": 3},
    })
    assert report.passed() and report.scenario == "inline"


def test_scenario_missing_group():
    with pytest.raises(ParseError):
        run_scenario({"name": "x", "action": {"trivial_split": {
            "left": {"product_of_fields": 1},
            "right": {"product_of_fields": 1}}}})


S3_SPLIT = {"name": "s3_split", "group": {"symmetric": 3},
            "action": {"trivial_split": {"left": {"product_of_fields": 1},
                                         "right": {"product_of_fields": 1}}}}


@pytest.mark.parametrize("name", [*bundled_fixtures(), "s3_split"])
def test_rational_scalars_are_int_or_fraction(name):
    # over ℚ every scalar the pipeline stores is an int or a Fraction: the
    # structure constants and units of the algebra, the twisted ring, the
    # smash and the matrix target, and the bases of their subspaces
    doc = S3_SPLIT if name == "s3_split" else load_scenario(fixture_path(name))
    group = build_group(doc["group"])
    algebra = build_algebra(QQ, doc["algebra"]) if "algebra" in doc else None
    action = build_action(QQ, group, algebra, doc["action"])
    skew = build_skew(action)
    d = build_duality(build_smash(skew))
    algebras = [action.algebra, skew.algebra, d.smash.algebra, d.mat]
    subspaces = [*action.ideals, *skew.components, d.kernel, d.image, d.ideal,
                 *(center_basis(a) for a in algebras)]
    scalars = [v for a in algebras for row in a.products for cell in row.values()
               for _, v in cell]
    scalars += [x for a in algebras for x in a.unit.values()]
    scalars += [x for sp in subspaces for v in sp.basis for x in v.values()]
    assert scalars
    assert {type(x) for x in scalars} <= {int, Fraction}


# the keys each suite adds, run alone, to the three every run measures
BASE_KEYS = {"algebra_dimension", "ideal_dimensions", "global"}
SUITE_KEYS = {
    "lemma1": set(),
    "grading": {"skew_dimension", "strong"},
    "duality": {"skew_dimension", "smash_dimension", "kernel_dimension",
                "corner_dimension", "matrix_dimension"},
    "separability": {"skew_dimension", "smash_dimension"},
    "hopf": {"skew_dimension"},
    "centers": {"skew_dimension", "smash_dimension", "algebra_center_dimension",
                "skew_center_dimension", "smash_center_dimension",
                "matrix_center_dimension"},
}


def test_the_expect_table_is_what_the_suites_measure():
    # an expect key outside the table is refused, so every key a suite
    # measures must be in it, and every key in it measured by some suite
    assert len(set(EXPECT_KEYS)) == len(EXPECT_KEYS) == 13
    assert all(BASE_KEYS | keys <= set(EXPECT_KEYS) for keys in SUITE_KEYS.values())
    assert BASE_KEYS.union(*SUITE_KEYS.values()) == set(EXPECT_KEYS)


@pytest.mark.parametrize("name", bundled_fixtures())
def test_each_suite_measures_its_keys(name):
    # a value of each key's type (most will not match: only measured or
    # skipped is read here)
    typed = {"ideal_dimensions": [], "strong": False, "global": False}
    doc = dict(load_scenario(fixture_path(name)),
               expect={key: typed.get(key, 0) for key in EXPECT_KEYS})
    for suite, keys in SUITE_KEYS.items():
        report = run_scenario(doc, suites=[suite])
        measured = {c.name.removeprefix("expect.") for c in report.checks
                    if c.name.startswith("expect.") and c.status != SKIPPED}
        assert measured == BASE_KEYS | keys, suite


def test_suites_run_once_each_in_table_order():
    report = run_scenario(fixture_path("s1.json"),
                          suites=["centers", "lemma1", "lemma1"])
    names = [c.name for c in report.checks]
    lemma1 = [n for n in names if n.startswith("lemma1.")]
    assert lemma1 and len(lemma1) == len(set(lemma1))
    assert names.index("centers.computed") > max(map(names.index, lemma1))
