"""One refusal policy: a builder that refuses while a suite runs becomes the
failed check ``<suite>.refused`` of the report, whose one witness is the
refusal's message.  The checks the suite made before it, the later suites
and the ``expect`` block stay in the report; ``verify`` exits 1, never 2,
and prints no traceback; ``selftest`` reports the scenario as failed and
goes on."""

import pytest

import partialskew.duality as duality
import partialskew.hopf as hopf
import partialskew.lemma1 as lemma1
import partialskew.scenarios as scenarios
import partialskew.skew as skew_module
from partialskew.cli import main
from partialskew.errors import InternalCheckFailed, NotAssociative
from partialskew.report import parse_structured
from partialskew.scenarios import bundled_fixtures, fixture_path

S1 = str(fixture_path("s1.json"))
SUITES = ("lemma1", "grading", "duality", "separability", "hopf", "centers")


def _refusing(message):
    def refuse(*args, **kwargs):
        raise InternalCheckFailed(message)
    return refuse


# suite -> the module whose binding of the builder the suite calls, the
# builder, and the other suites run with it, none of which calls it
PLANTED = {
    "lemma1": (lemma1, "dot_identities_report", ("grading",)),
    "grading": (scenarios, "build_skew", ("lemma1",)),
    "duality": (duality, "build_duality", ("grading", "separability")),
    "separability": (scenarios, "build_smash", ("lemma1", "grading")),
    "hopf": (hopf, "lift_group_action", ("grading", "duality")),
    "centers": (scenarios, "center_basis", ("lemma1", "grading")),
}


def _verify(capsys, *args):
    """The exit code and the structured report of one ``verify`` of s1."""
    code = main(["verify", S1, *args, "--format", "structured"])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err == ""
    return code, parse_structured(captured.out)


@pytest.mark.parametrize("suite", sorted(PLANTED))
def test_a_refusal_in_a_suite_is_one_failed_check(suite, monkeypatch, capsys):
    module, builder, others = PLANTED[suite]
    message = f"{builder} refused (planted)"
    monkeypatch.setattr(module, builder, _refusing(message))
    selected = [arg for s in (suite, *others) for arg in ("--suite", s)]
    code, report = _verify(capsys, *selected)
    assert code == 1
    refused = report.named(f"{suite}.refused")
    assert (refused.status, refused.measured, refused.witnesses) == ("fail", {}, [message])
    failed = [c.name for c in report.checks if c.status == "fail"]
    assert failed == [f"{suite}.refused"]
    for other in others:
        assert any(c.name.startswith(f"{other}.") and c.status == "pass"
                   for c in report.checks), other
    assert any(c.name.startswith("expect.") for c in report.checks)


def test_a_refusal_with_an_empty_message_still_fails(monkeypatch, capsys):
    # only None is dropped from a check's witnesses: the empty message is one
    monkeypatch.setattr(duality, "build_duality", _refusing(""))
    code, report = _verify(capsys, "--suite", "duality")
    assert code == 1
    refused = report.named("duality.refused")
    assert (refused.status, refused.witnesses) == ("fail", [""])


def test_checks_a_suite_made_before_its_refusal_stay(monkeypatch, capsys):
    # the duality suite reports on the smash before it builds the matrix map
    monkeypatch.setattr(duality, "build_duality", _refusing("planted"))
    code, report = _verify(capsys, "--suite", "duality")
    assert code == 1
    assert report.named("smash.dimension").status == "pass"
    assert report.named("duality.refused").witnesses == ["planted"]


def test_a_refused_twisted_ring_is_a_failed_check_not_bad_input(monkeypatch, capsys):
    # a ValidationError past the input action is a refusal, not bad input:
    # every suite that reads the twisted ring is refused with its message
    def not_associative(*args, **kwargs):
        raise NotAssociative("algebra", "x", "y", "z")

    monkeypatch.setattr(skew_module, "make_algebra", not_associative)
    code, report = _verify(capsys)
    assert code == 1
    message = "algebra is not associative at triple (x, y, z)"
    refused = {c.name: c.witnesses for c in report.checks if c.name.endswith(".refused")}
    assert refused == {f"{s}.refused": [message] for s in SUITES if s != "lemma1"}
    assert all(c.status == "pass" for c in report.checks if c.name.startswith("lemma1."))
    assert report.named("expect.skew_dimension").witnesses == [
        "ExpectationMismatch: skew_dimension was never measured "
        "(enable the suite that computes it)"]


def test_a_refused_build_runs_once(monkeypatch, capsys):
    # the twisted ring is read by five suites; its refusal is cached beside
    # the build and raised again to each, so make_algebra is called once and
    # every suite still reports the one message
    calls = []

    def not_associative(*args, **kwargs):
        calls.append(None)
        raise NotAssociative("algebra", "x", "y", "z")

    monkeypatch.setattr(skew_module, "make_algebra", not_associative)
    code, report = _verify(capsys)
    assert code == 1
    assert len(calls) == 1
    message = "algebra is not associative at triple (x, y, z)"
    failed = {c.name: c.witnesses for c in report.checks
              if c.status == "fail" and not c.name.startswith("expect.")}
    assert failed == {f"{s}.refused": [message] for s in SUITES if s != "lemma1"}


def test_a_refusal_in_the_explicit_hopf_block(monkeypatch, capsys, tmp_path):
    from test_cli import HOPF_Z2, _split_doc, _write

    doc = _split_doc({"cyclic": 2}, {"product_of_fields": 1}, {"product_of_fields": 1},
                     hopf=HOPF_Z2)
    monkeypatch.setattr(hopf, "build_representations", _refusing("planted"))
    assert main(["verify", _write(tmp_path, doc), "--format", "structured"]) == 1
    report = parse_structured(capsys.readouterr().out)
    assert report.named("hopf.explicit_refused").witnesses == ["planted"]
    assert report.named("lemma1.multiplicative").status == "pass"


def test_selftest_reports_a_refusal_and_goes_on(monkeypatch, capsys):
    # only the first scenario's centres are refused
    center_basis = scenarios.center_basis
    calls = []

    def refuse_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise InternalCheckFailed("planted")
        return center_basis(*args, **kwargs)

    monkeypatch.setattr(scenarios, "center_basis", refuse_once)
    assert main(["selftest"]) == 1
    lines = capsys.readouterr().out.splitlines()
    verdicts = [line.split()[:2] for line in lines if not line.startswith("    ")]
    first, *rest = bundled_fixtures()
    assert verdicts == [[first, "FAIL"], *([name, "PASS"] for name in rest),
                        ["selftest:", "FAIL"]]
    assert lines[-1] == "selftest: FAIL (1 scenario(s))"
    # the refusal, then the expectations of the centres it never measured
    failures = lines[1:1 + len(lines) - len(verdicts)]
    assert failures[0] == "    failed: centers.refused ['planted']"
    assert all(line.startswith("    failed: expect.") for line in failures[1:])
