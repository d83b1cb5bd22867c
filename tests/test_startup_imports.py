"""What a process loads: the package root and the suite dispatcher import
neither the Hopf nor the duality layer, nor the Lemma 1 report
(``lemma1``) or the matrix, tensor and group algebras (``constructions``),
nor ``dataclasses``/``inspect``, nor ``fractions``/``decimal``; each of
those modules loads on first use, and ``fractions`` only where a rational
may need a denominator.  Each import check runs
in a fresh ``python -S`` interpreter with ``src`` on ``sys.path``, so no
module the test runner has already imported can hide an import.  The check
records keep the value semantics they had as dataclasses."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from partialskew.report import CheckResult, Report, check
from partialskew.scenarios import fixture_path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
S3_SEPARABILITY = ROOT / "perfbench" / "scenarios" / "s3_separability.json"
S3_SPLIT = ROOT / "perfbench" / "scenarios" / "s3_split.json"

HOPF_NAMES = ("HopfData", "PartialHopfAction", "build_corner_maps",
              "build_partial_smash", "build_representations", "group_hopf",
              "lift_group_action", "make_hopf", "make_partial_hopf_action")

DUALITY_NAMES = ("DualityData", "build_duality", "corner_report",
                 "decomposition_report", "kernel_report",
                 "skew_injectivity_report")

CONSTRUCTIONS_NAMES = ("group_algebra", "matrix_algebra", "tensor_algebra")

LEMMA1_NAMES = ("dot_identities_report",)

# ``importlib.resources`` is listed because from Python 3.12 on it imports
# ``inspect`` when it loads; on 3.11 it does not, so only its own name shows
# that import there.
HEAVY = ("partialskew.hopf", "dataclasses", "inspect", "importlib.resources")
# loaded by the runs that use them: the duality and lemma1 suites, the
# matrix algebras, and rationals with a denominator
ON_USE = ("partialskew.duality", "partialskew.lemma1", "partialskew.constructions",
          "fractions", "decimal")


def _fresh(code):
    """Run ``code`` in a new ``python -S`` with ``src`` first on the path;
    it must print one JSON value, returned here."""
    prelude = f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n"
    out = subprocess.run([sys.executable, "-S", "-c", prelude + code],
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def _loaded_after(code, modules=HEAVY):
    """Which of ``modules`` are in ``sys.modules`` after ``code``."""
    return _fresh(f"{code}\nprint(json.dumps([m for m in {modules!r} "
                  "if m in sys.modules]))")


@pytest.mark.parametrize("statement", ["import partialskew",
                                       "import partialskew.scenarios",
                                       "import partialskew.cli"])
def test_import_loads_no_lazy_layer_and_no_heavy_module(statement):
    assert _loaded_after(statement, HEAVY + ON_USE) == []


def test_a_separability_run_over_fp_loads_no_duality_hopf_or_fractions():
    assert _loaded_after(
        "from partialskew.report import emit_report, parse_structured\n"
        "from partialskew.scenarios import run_scenario\n"
        f"r = run_scenario({str(S3_SEPARABILITY)!r}, suites=['separability'],\n"
        "                 field_override='fp:5')\n"
        "assert parse_structured(emit_report(r, 'structured')) == r.canonical()\n"
        "assert r.passed() and r.named('separability.centralizes')",
        HEAVY + ON_USE) == []


def test_a_rational_run_with_every_suite_of_s3_split_loads_no_fractions():
    # every pivot of the run divides its row exactly, so each elimination
    # over Q stays in ``int``
    assert _loaded_after(
        "from partialskew.report import emit_report, parse_structured\n"
        "from partialskew.scenarios import run_scenario\n"
        f"r = run_scenario({str(S3_SPLIT)!r}, field_override='q')\n"
        "assert parse_structured(emit_report(r, 'structured')) == r.canonical()\n"
        "assert r.passed()\n"
        "for name in ('lemma1.kernel_ideal', 'grading.strong_iff_global',\n"
        "             'duality.kernel_formula', 'hopf.axioms', 'centers.computed'):\n"
        "    r.named(name)",
        ("fractions", "decimal")) == []


def test_a_hopf_run_over_fp_loads_no_fractions_or_decimal():
    # make_hopf inverts the antipode of k[S₃] and of its dual by residue
    # arithmetic alone: no division goes through ``Fraction``
    assert _loaded_after(
        "from partialskew.scenarios import run_scenario\n"
        f"r = run_scenario({str(S3_SPLIT)!r}, suites=['hopf'], field_override='fp:5')\n"
        "assert r.passed() and r.named('hopf.axioms').measured['antipode_rank'] == 6",
        ("fractions", "decimal")) == []


def test_a_run_without_the_hopf_suite_loads_no_hopf_layer():
    path = str(fixture_path("s1.json"))
    assert _loaded_after(
        "from partialskew.report import emit_report, parse_structured\n"
        "from partialskew.scenarios import run_scenario\n"
        f"r = run_scenario({path!r}, suites=['lemma1', 'duality', 'separability'])\n"
        "assert parse_structured(emit_report(r, 'structured')) == r.canonical()\n"
        "assert r.passed()") == []


def test_the_hopf_suite_loads_the_hopf_layer():
    path = str(fixture_path("s1.json"))
    assert _loaded_after(
        "from partialskew.scenarios import run_scenario\n"
        f"r = run_scenario({path!r}, suites=['hopf'])\n"
        "assert r.named('hopf.lift_matches_group_dot').status == 'pass'",
        HEAVY + ("partialskew.duality",)) == ["partialskew.hopf"]


def test_the_duality_suite_loads_the_duality_layer():
    path = str(fixture_path("s1.json"))
    assert _loaded_after(
        "from partialskew.scenarios import run_scenario\n"
        f"r = run_scenario({path!r}, suites=['duality'], field_override='fp:5')\n"
        "assert r.named('duality.kernel_formula').status == 'pass'",
        ("partialskew.duality", "partialskew.hopf")) == ["partialskew.duality"]


def test_the_lemma1_suite_loads_the_lemma1_module_only():
    path = str(fixture_path("s1.json"))
    assert _loaded_after(
        "from partialskew.scenarios import run_scenario\n"
        f"r = run_scenario({path!r}, suites=['lemma1'])\n"
        "assert r.named('lemma1.pull_through').status == 'pass'",
        ("partialskew.lemma1", "partialskew.constructions")) == ["partialskew.lemma1"]


def test_a_matrix_algebra_document_loads_the_constructions():
    doc = {"name": "m2", "group": {"cyclic": 1}, "algebra": {"matrix": {"size": 2}},
           "action": {"explicit": {
               "idempotents": [[1, 0, 0, 1]],
               "beta": [[[int(r == c) for c in range(4)] for r in range(4)]]}},
           "suites": ["grading"]}
    assert _loaded_after(
        "from partialskew.scenarios import run_scenario\n"
        f"r = run_scenario({doc!r})\n"
        "assert r.passed() and r.named('action.axioms').measured['algebra_dimension'] == 4",
        ("partialskew.lemma1", "partialskew.constructions")) == ["partialskew.constructions"]


@pytest.mark.parametrize("layer, name, names", [
    ("hopf", "HopfData", HOPF_NAMES), ("duality", "build_duality", DUALITY_NAMES),
    ("constructions", "matrix_algebra", CONSTRUCTIONS_NAMES),
    ("lemma1", "dot_identities_report", LEMMA1_NAMES)],
    ids=["hopf", "duality", "constructions", "lemma1"])
def test_reading_a_layer_name_loads_the_layer(layer, name, names):
    assert _fresh(
        "import partialskew\n"
        f"before = 'partialskew.{layer}' in sys.modules\n"
        "listed = dir(partialskew)\n"
        f"value = partialskew.{name}\n"
        f"import partialskew.{layer} as layer\n"
        f"print(json.dumps([before, 'partialskew.{layer}' in sys.modules,\n"
        f"                  value is layer.{name}, [n for n in {names!r} if n in listed]]))"
    ) == [False, True, True, list(names)]


def test_lazy_names_resolve_to_their_layers():
    import partialskew
    from partialskew import (DualityData, HopfData, actions, algebras,
                             constructions, duality, hopf, lemma1, smash)
    assert HopfData is hopf.HopfData and DualityData is duality.DualityData
    for layer, names in ((hopf, HOPF_NAMES), (duality, DUALITY_NAMES),
                         (constructions, CONSTRUCTIONS_NAMES), (lemma1, LEMMA1_NAMES)):
        assert all(getattr(partialskew, n) is getattr(layer, n) for n in names)
        assert set(names) <= set(dir(partialskew))
    # the separability checks live beside the smash, with no alias in duality
    assert partialskew.separability_report is smash.separability_report
    assert not hasattr(duality, "separability_report")
    # the moved names leave no alias behind where they were
    moved = CONSTRUCTIONS_NAMES + ("MatrixAlgebra", "TensorAlgebra")
    assert [n for n in moved if hasattr(algebras, n)] == []
    assert not hasattr(actions, "dot_identities_report")
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        partialskew.not_a_name


def test_rationals_work_before_fractions_is_imported():
    assert _fresh(
        "from partialskew.fields import QQ\n"
        "import partialskew.linalg\n"
        "before = 'fractions' in sys.modules\n"
        "x = QQ.parse('-3/2')\n"
        "print(json.dumps([before, str(x), type(x).__name__]))"
    ) == [False, "-3/2", "Fraction"]
    # an elimination over Q as the first rational made: the pivot row of
    # the span of (2, 1) is divided by 2
    assert _fresh(
        "from partialskew.fields import QQ\n"
        "from partialskew.linalg import Subspace\n"
        "before = 'fractions' in sys.modules\n"
        "span = Subspace.span(QQ, 2, [{0: 2, 1: 1}])\n"
        "print(json.dumps([before, span.pivots,\n"
        "                  [[type(v).__name__, str(v)] for v in span.basis[0].values()]]))"
    ) == [False, [0], [["int", "1"], ["Fraction", "1/2"]]]
    # a pivot of -3 that divides its row is normalised in ``int``, and no
    # ``Fraction`` is made
    assert _fresh(
        "from partialskew.fields import QQ\n"
        "from partialskew.linalg import Subspace\n"
        "span = Subspace.span(QQ, 3, [{0: -3, 1: -21, 2: 9}])\n"
        "print(json.dumps([span.basis[0], 'fractions' in sys.modules]))"
    ) == [{"0": 1, "1": 7, "2": -3}, False]
    # an inexact scalar over Q is refused without loading ``fractions``
    assert _fresh(
        "from partialskew.fields import QQ\n"
        "try:\n"
        "    QQ.scalars([1, 0.5])\n"
        "except ValueError as exc:\n"
        "    print(json.dumps([str(exc), 'fractions' in sys.modules]))"
    ) == ["scalar 0.5 is not an exact rational (an int or a Fraction)", False]


# -- check records ---------------------------------------------------------

def test_check_result_equality_ignores_seconds():
    a = CheckResult("x.y", "pass", {"n": 1}, ["w"], seconds=0.5)
    assert a == CheckResult("x.y", "pass", {"n": 1}, ["w"])
    assert a != CheckResult("x.y", "fail", {"n": 1}, ["w"], seconds=0.5)
    assert a != CheckResult("x.y", "pass", {"n": 2}, ["w"])
    assert a != CheckResult("x.y", "pass", {"n": 1}, [])
    assert a != ("x.y", "pass", {"n": 1}, ["w"])


def test_a_check_fails_exactly_when_it_names_a_witness():
    assert check("x.y", {"n": 1}) == CheckResult("x.y", "pass", {"n": 1}, [])
    assert check("x.y", None, None, None) == CheckResult("x.y", "pass", {}, [])
    # only None is dropped: an empty message is a witness and fails
    assert check("x.y", {}, None, "", None, "w") == CheckResult("x.y", "fail", {}, ["", "w"])


def test_check_result_defaults_are_fresh_and_fields_keep_their_order():
    a, b = CheckResult("a", "pass"), CheckResult("a", "pass")
    a.measured["k"] = 1
    a.witnesses.append("w")
    assert b.measured == {} and b.witnesses == [] and b.seconds is None
    assert repr(CheckResult("a", "pass", {"k": 1}, ["w"], 0.25)) == (
        "CheckResult(name='a', status='pass', measured={'k': 1}, "
        "witnesses=['w'], seconds=0.25)")


def test_report_equality_and_repr():
    checks = [CheckResult("b", "pass"), CheckResult("a", "fail", {}, ["why"])]
    report = Report("s", checks)
    assert report == Report("s", list(checks))
    assert report != Report("t", list(checks))
    assert report != report.canonical()
    assert report.canonical() == Report("s", checks[::-1])
    assert repr(Report("s", [CheckResult("a", "pass")])) == (
        "Report(scenario='s', checks=[CheckResult(name='a', status='pass', "
        "measured={}, witnesses=[], seconds=None)])")


@pytest.mark.parametrize("value", [CheckResult("a", "pass"), Report("s", [])])
def test_check_records_are_unhashable(value):
    assert type(value).__hash__ is None
    with pytest.raises(TypeError, match="unhashable"):
        hash(value)
