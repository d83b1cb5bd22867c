"""What a process loads: the package root and the suite dispatcher import
neither the Hopf layer nor ``dataclasses``/``inspect``; the Hopf layer
loads on first use.  Each import check runs in a fresh ``python -S``
interpreter with ``src`` on ``sys.path``, so no module the test runner has
already imported can hide an import.  The check records keep the value
semantics they had as dataclasses."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from partialskew.report import CheckResult, Report, check
from partialskew.scenarios import fixture_path

SRC = Path(__file__).resolve().parent.parent / "src"

HOPF_NAMES = ("HopfData", "PartialHopfAction", "build_corner_maps",
              "build_partial_smash", "build_representations", "group_hopf",
              "lift_group_action", "make_hopf", "make_partial_hopf_action")

# ``importlib.resources`` is listed because from Python 3.12 on it imports
# ``inspect`` when it loads; on 3.11 it does not, so only its own name shows
# that import there.
HEAVY = ("partialskew.hopf", "dataclasses", "inspect", "importlib.resources")


def _fresh(code):
    """Run ``code`` in a new ``python -S`` with ``src`` first on the path;
    it must print one JSON value, returned here."""
    prelude = f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n"
    out = subprocess.run([sys.executable, "-S", "-c", prelude + code],
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def _loaded_after(code):
    """Which of HEAVY are in ``sys.modules`` after ``code``."""
    return _fresh(f"{code}\nprint(json.dumps([m for m in {HEAVY!r} "
                  "if m in sys.modules]))")


@pytest.mark.parametrize("statement", ["import partialskew",
                                       "import partialskew.scenarios",
                                       "import partialskew.cli"])
def test_import_loads_no_hopf_layer_and_no_dataclasses(statement):
    assert _loaded_after(statement) == []


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
        "assert r.named('hopf.lift_matches_group_dot').status == 'pass'"
    ) == ["partialskew.hopf"]


def test_reading_a_hopf_name_loads_the_hopf_layer():
    assert _fresh(
        "import partialskew\n"
        "before = 'partialskew.hopf' in sys.modules\n"
        "names = dir(partialskew)\n"
        "cls = partialskew.HopfData\n"
        "import partialskew.hopf as h\n"
        "print(json.dumps([before, 'partialskew.hopf' in sys.modules,\n"
        f"                  cls is h.HopfData, [n for n in {HOPF_NAMES!r} if n in names]]))"
    ) == [False, True, True, list(HOPF_NAMES)]


def test_hopf_names_resolve_to_the_hopf_layer():
    import partialskew
    from partialskew import HopfData, hopf
    assert HopfData is hopf.HopfData
    assert all(getattr(partialskew, n) is getattr(hopf, n) for n in HOPF_NAMES)
    assert set(HOPF_NAMES) <= set(dir(partialskew))
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        partialskew.not_a_name


# -- check records ---------------------------------------------------------

def test_check_result_equality_ignores_seconds():
    a = CheckResult("x.y", "pass", {"n": 1}, ["w"], seconds=0.5)
    assert a == CheckResult("x.y", "pass", {"n": 1}, ["w"])
    assert a != CheckResult("x.y", "fail", {"n": 1}, ["w"], seconds=0.5)
    assert a != CheckResult("x.y", "pass", {"n": 2}, ["w"])
    assert a != CheckResult("x.y", "pass", {"n": 1}, [])
    assert a != ("x.y", "pass", {"n": 1}, ["w"])
    assert check("x.y", True, {"n": 1}, ["w"]) == a


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
