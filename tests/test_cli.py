import json

import pytest

from partialskew.cli import main
from partialskew.errors import ParseError
from partialskew.report import emit_report, parse_structured
from partialskew.scenarios import (bundled_fixtures, fixture_path,
                                   load_scenario, run_scenario)

S1_DOC = {
    "name": "s1-file",
    "field": "q",
    "group": {"cyclic": 2},
    "action": {"trivial_split": {"left": {"product_of_fields": 1},
                                 "right": {"product_of_fields": 1}}},
    "suites": ["lemma1", "grading", "duality"],
    "expect": {"skew_dimension": 3, "kernel_dimension": 1},
}


def _write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_verify_pass(tmp_path, capsys):
    path = _write(tmp_path, S1_DOC)
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out and "duality.kernel_formula" in out


def test_verify_structured_deterministic(tmp_path):
    path = _write(tmp_path, S1_DOC)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["verify", path, "--format", "structured", "--out", str(out1)]) == 0
    assert main(["verify", path, "--format", "structured", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_structured_round_trip(tmp_path):
    doc = dict(S1_DOC, suites=[*S1_DOC["suites"], "centers"])
    report = run_scenario(_write(tmp_path, doc))
    text = emit_report(report, "structured")
    parsed = parse_structured(text)
    # every group is timed, its lazy builds included, the last group of the
    # grading suite and the one of the centers suite too
    for name in ("grading.strong_iff_global", "centers.computed"):
        assert report.named(name).seconds is not None
    # equality ignores the text-only timings, which the structured form drops
    assert any(c.seconds is not None for c in report.checks)
    assert all(c.seconds is None for c in parsed.checks)
    assert parsed == report.canonical()
    assert emit_report(parsed, "structured") == text


def test_expectation_mismatch_exits_one(tmp_path, capsys):
    doc = dict(S1_DOC)
    doc["expect"] = {"kernel_dimension": 2}
    path = _write(tmp_path, doc)
    assert main(["verify", path]) == 1
    out = capsys.readouterr().out
    assert "ExpectationMismatch" in out and "expect.kernel_dimension" in out


def test_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["verify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_utf8_scenario_exits_two(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(S1_DOC).encode())
    with pytest.raises(ParseError, match="latin.json: not UTF-8"):
        load_scenario(path)
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "latin.json" in captured.err


def test_unwritable_out_exits_two(tmp_path, capsys):
    path = _write(tmp_path, S1_DOC)
    out = tmp_path / "missing" / "report.txt"
    assert main(["verify", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.parent.exists()
    assert captured.err.startswith("error: cannot write ") and str(out) in captured.err


def test_validation_error_exits_two(tmp_path, capsys):
    doc = {
        "name": "bad",
        "group": {"cyclic": 2},
        "algebra": {"product_of_fields": 2},
        "action": {"explicit": {
            "idempotents": [[1, 1], [1, 1]],
            "beta": [[[1, 0], [0, 1]], [[1, 0], [0, 0]]],
        }},
        "suites": ["lemma1"],
    }
    assert main(["verify", _write(tmp_path, doc)]) == 2
    assert "isomorphism" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["q", "fp:5", "fp:2"])
def test_axiom_ii_fault_past_the_isomorphism_check_exits_two(tmp_path, capsys, field):
    # α_g: D_{g²} = <e1, e2> -> D_g = <e0, e1> is an isomorphism, but it
    # sends D_{g²} ∩ D_g = <e1> to <e0>, not to D_g ∩ D_{g²} = <e1>
    doc = {
        "name": "axiom_ii_past_iso",
        "group": {"cyclic": 3},
        "algebra": {"product_of_fields": 3},
        "action": {"explicit": {
            "idempotents": [[1, 1, 1], [1, 1, 0], [0, 1, 1]],
            "beta": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                     [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
                     [[0, 0, 0], [1, 0, 0], [0, 1, 0]]],
        }},
        "suites": ["lemma1"],
    }
    assert main(["verify", _write(tmp_path, doc), "--field", field]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: domain-intersection axiom fails at pair "
                            "(g=g1, h=g1): image dim 1, target dim 1\n")


def test_field_override(tmp_path):
    path = _write(tmp_path, S1_DOC)
    assert main(["verify", path, "--field", "fp:5"]) == 0
    report = run_scenario(path, field_override="fp:5")
    assert report.passed()


def test_suite_selection(tmp_path, capsys):
    path = _write(tmp_path, S1_DOC)
    assert main(["verify", path, "--suite", "lemma1"]) == 0
    out = capsys.readouterr().out
    assert "lemma1.multiplicative" in out
    assert "duality.kernel_formula" not in out
    # expectations of skipped suites are marked skipped, not failed
    assert "skipp" in out


def test_exact_rational_strings(tmp_path):
    doc = {
        "name": "halves",
        "group": {"table": [[0, 1], [1, 0]], "labels": ["e", "g"]},
        "algebra": {
            "constants": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1/2", "0"]]],
            "unit": ["1", "0"],
        },
        "action": {"explicit": {
            "idempotents": [["1", "0"], ["1", "0"]],
            "beta": [[["1", "0"], ["0", "1"]], [["1", "0"], ["0", "-1"]]],
        }},
        "suites": ["lemma1", "grading", "duality"],
    }
    assert main(["verify", _write(tmp_path, doc)]) == 0


def _labelled_doc(labels):
    """The dim-2 algebra k[x]/(x² - 1/2) with the given ``algebra.labels``."""
    return {
        "name": "labelled",
        "group": {"cyclic": 2},
        "algebra": {
            "constants": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1/2", "0"]]],
            "unit": ["1", "0"],
            "labels": labels,
        },
        "action": {"explicit": {
            "idempotents": [["1", "0"], ["1", "0"]],
            "beta": [[["1", "0"], ["0", "1"]], [["1", "0"], ["0", "-1"]]],
        }},
    }


@pytest.mark.parametrize("labels, message", [
    (["1"], "algebra.labels: 1 labels for 2 elements"),
    (["1", "x", "y"], "algebra.labels: 3 labels for 2 elements"),
    (["x", "x"], "algebra.labels: label 'x' is repeated"),
    ("1x", "algebra.labels must be a list, got '1x'"),
])
def test_malformed_algebra_labels_exit_two(tmp_path, capsys, labels, message):
    path = _write(tmp_path, _labelled_doc(labels))
    assert main(["verify", path, "--suite", "lemma1", "--suite", "grading"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_valid_algebra_labels_are_accepted(tmp_path, capsys):
    path = _write(tmp_path, _labelled_doc(["1", "x"]))
    assert main(["verify", path, "--suite", "lemma1", "--suite", "grading"]) == 0


@pytest.mark.parametrize("constants, unit", [
    ([[[1, 0], [0]], [[0, 1], [1, 0]]], [1, 0]),   # a 1-entry cell, dim 2
    ([[[1, 5]]], [1]),                             # a 2-entry cell, dim 1
])
def test_ragged_constants_exit_two(tmp_path, capsys, constants, unit):
    doc = {
        "name": "ragged",
        "group": {"cyclic": 1},
        "algebra": {"constants": constants, "unit": unit},
        "action": {"explicit": {"idempotents": [unit],
                                "beta": [[[int(r == c) for c in unit]
                                          for r in range(len(unit))]]}},
        "suites": ["lemma1"],
    }
    assert main(["verify", _write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert "constants[" in captured.err
    assert "Traceback" not in captured.out + captured.err


def _split_doc(group, left=None, right=None, **extra):
    split = {}
    if left is not None:
        split["left"] = left
    if right is not None:
        split["right"] = right
    doc = {"name": "bad-input", "group": group,
           "action": {"trivial_split": split}, "suites": ["lemma1"]}
    doc.update(extra)
    return doc


FIELD_ONE = {"product_of_fields": 1}

# ℚ[Z₂] as an explicit Hopf block (see the README)
HOPF_Z2 = {
    "constants": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
    "unit": [1, 0],
    "comultiplication": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
    "counit": [1, 1],
    "antipode": [[1, 0], [0, 1]],
}


def _on_field(action):
    """A scenario with the trivial group acting on the field by ``action``."""
    return {"name": "bad-input", "group": {"cyclic": 1}, "algebra": FIELD_ONE,
            "action": action, "suites": ["lemma1"]}


@pytest.mark.parametrize("doc, message", [
    (_split_doc({"cyclic": 2.5}, FIELD_ONE, FIELD_ONE), "group.cyclic"),
    (_split_doc({"cyclic": "x"}, FIELD_ONE, FIELD_ONE), "group.cyclic"),
    (_split_doc({"cyclic": -3}, FIELD_ONE, FIELD_ONE), "group.cyclic"),
    (_split_doc({"cyclic": True}, FIELD_ONE, FIELD_ONE), "group.cyclic"),
    (_split_doc({"symmetric": 0}, FIELD_ONE, FIELD_ONE), "group.symmetric"),
    (_split_doc({"cyclic": 2}, {"product_of_fields": 2.0}, FIELD_ONE),
     "algebra.product_of_fields"),
    (_split_doc({"cyclic": 2}, {"matrix": {"size": "2"}}, FIELD_ONE), "matrix.size"),
    (_split_doc({"cyclic": 2}, {"matrix": {}}, FIELD_ONE), "'size'"),
    (_split_doc({"cyclic": 2}, None, FIELD_ONE), "'left'"),
    (_split_doc({"cyclic": 2}, FIELD_ONE, None), "'right'"),
    (_split_doc({"cyclic": 2}, FIELD_ONE, FIELD_ONE, suites="duality"), "suites"),
    (_split_doc({"cyclic": 2}, FIELD_ONE, FIELD_ONE, suites=["nope"]),
     "unknown suite 'nope' (choose from lemma1, grading, duality, separability, "
     "hopf, centers)"),
    # a suite that is not a string is refused by name, not as unhashable
    (_split_doc({"cyclic": 2}, FIELD_ONE, FIELD_ONE, suites=[["grading"]]),
     "unknown suite ['grading'] (choose from "),
    (_split_doc({"cyclic": 2}, FIELD_ONE, FIELD_ONE, suites=[{}]),
     "unknown suite {} (choose from "),
    *[(_split_doc({"cyclic": 2}, FIELD_ONE, FIELD_ONE,
                  hopf={k: v for k, v in HOPF_Z2.items() if k != key}),
       f"hopf is missing its {key!r} entry") for key in HOPF_Z2],
    (_split_doc({"cyclic": 2}, FIELD_ONE, FIELD_ONE, hopf=[]), "hopf must be an object"),
    # the removed hopf_lift key was "hopf" added to suites; it is refused
    # with one line that says so, whatever its value
    (_split_doc({"cyclic": 2}, FIELD_ONE, FIELD_ONE, hopf_lift=True),
     'error: hopf_lift is no longer read: list "hopf" in suites\n'),
    (_on_field({"explicit": {"idempotents": [[1]]}}), "explicit is missing its 'beta'"),
    (_on_field({"explicit": {"beta": [[[1]]]}}),
     "explicit is missing its 'idempotents'"),
    (_on_field({"restrict_global": {"automorphisms": [[[1]]]}}),
     "restrict_global is missing its 'idempotent'"),
    (_on_field({"restrict_global": {"automorphisms": 5, "idempotent": [1]}}),
     "restrict_global.automorphisms must be a list"),
    (_on_field({"restrict_global": {"automorphisms": [[[1]]], "idempotent": [0]}}),
     "cannot restrict to the zero idempotent"),
    ({**_on_field({"explicit": {"idempotents": [[1]], "beta": [[[1]]]}}),
      "algebra": {"constants": [[[1]]]}}, "algebra is missing its 'unit'"),
    (_split_doc({"direct_product": 3}, FIELD_ONE, FIELD_ONE),
     "group.direct_product must be a list of 2 items"),
    (_split_doc({"cyclic": 2}, {"direct_product": 3}, FIELD_ONE),
     "algebra.direct_product must be a list of 2 items"),
    (_split_doc({"cyclic": 2}, FIELD_ONE, FIELD_ONE, expect=["skew_dimension"]),
     "expect must be an object"),
    (_split_doc({"table": "abc"}, FIELD_ONE, FIELD_ONE), "group.table must be a list"),
    (_split_doc({"table": [[0, 1], [1]]}, FIELD_ONE, FIELD_ONE),
     "group.table: Cayley table is not square"),
    (_split_doc({"table": [[0, True], [True, 0]]}, FIELD_ONE, FIELD_ONE),
     "group.table: table entry True is not an integer"),
    (_split_doc({"table": [[0, 1], [1, 0]], "labels": ["a", "a"]}, FIELD_ONE, FIELD_ONE),
     "group.labels: label 'a' is repeated"),
    (_split_doc({"table": [[0, 1], [1, 0]], "labels": ["e"]}, FIELD_ONE, FIELD_ONE),
     "group.labels: 1 labels for 2 elements"),
])
def test_malformed_scenario_fields_exit_two(tmp_path, capsys, doc, message):
    assert main(["verify", _write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.out + captured.err


def _matrix_doc(kind, matrix):
    """The trivial group on field^2 with one action matrix, handed in as an
    ``explicit.beta`` or a ``restrict_global.automorphisms`` entry."""
    if kind == "explicit":
        action = {"explicit": {"idempotents": [[1, 1]], "beta": [matrix]}}
    else:
        action = {"restrict_global": {"automorphisms": [matrix], "idempotent": [1, 1]}}
    return {"name": "bad-matrix", "group": {"cyclic": 1},
            "algebra": {"product_of_fields": 2}, "action": action, "suites": ["lemma1"]}


@pytest.mark.parametrize("kind", ["explicit", "restrict_global"])
@pytest.mark.parametrize("matrix, message", [
    ([], "expected a non-empty matrix"),
    (5, "expected a non-empty matrix"),
    ([[1, 0], [0]], "matrix rows have unequal lengths"),
    ([[1]], "matrix is 1x1, expected 2x2"),
    ([[1, 0, 0], [0, 1, 0]], "matrix is 2x3, expected 2x2"),
    ([[1, 0], 7], "expected a vector, got int"),
])
def test_malformed_action_matrix_exits_two(tmp_path, capsys, kind, matrix, message):
    assert main(["verify", _write(tmp_path, _matrix_doc(kind, matrix))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("name", [["x"], 7, None, {"a": 1}])
def test_non_string_name_exits_two(tmp_path, capsys, name):
    # the name heads every report, so it is refused before any suite runs
    doc = dict(S1_DOC, name=name)
    assert main(["verify", _write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert "name must be a string" in captured.err
    assert captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("field", [{"prime": 5}, 5, ["q"], None])
def test_non_string_field_exits_two(tmp_path, capsys, field):
    # a field is a token, "q" or "fp:<p>"; an object naming a prime is not
    # read as one
    assert main(["verify", _write(tmp_path, dict(S1_DOC, field=field))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: unknown field token ")


def test_empty_report_renders_header_only():
    from partialskew.report import Report
    text = emit_report(Report("empty", []), "text")
    lines = text.strip().splitlines()
    assert lines[0] == "scenario: empty"
    assert lines[1].startswith("check") and "result: PASS" in lines[-1]
    parsed = parse_structured(emit_report(Report("empty", []), "structured"))
    assert parsed == Report("empty", [])


def test_list_suites(capsys):
    assert main(["list-suites"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()] == [
        "lemma1", "grading", "duality", "separability", "hopf", "centers"]


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest: PASS" in out
    for name in bundled_fixtures():
        assert name in out


@pytest.mark.parametrize("token", ["fp:4", "fp:x", "r", ""])
def test_selftest_bad_field_exits_two(capsys, token):
    # the override is parsed once, before any scenario runs; an empty
    # override is a bad token, not an absent one
    assert main(["selftest", "--field", token]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("token", ["fp:4", ""])
def test_verify_bad_field_exits_two(capsys, token):
    # an empty override does not fall back to the file's field
    assert main(["verify", str(fixture_path("s1.json")), "--field", token]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and repr(token) in captured.err


def test_bundled_corpus_contents():
    names = bundled_fixtures()
    assert names == ["global_z2_swap.json", "s1.json", "s3_regular_restrict.json",
                     "split_field2_z3.json", "split_m2_z2.json", "z3_restrict.json"]
    with pytest.raises(ParseError):
        fixture_path("missing.json")


def test_run_scenario_validation_passthrough(tmp_path):
    doc = dict(S1_DOC)
    doc["suites"] = ["nonsense"]
    with pytest.raises(ParseError):
        run_scenario(_write(tmp_path, doc))
    doc2 = dict(S1_DOC)
    del doc2["action"]
    with pytest.raises(ParseError):
        run_scenario(_write(tmp_path, doc2))


def _z3_group_hopf_block():
    # ℚ[Z₃]: comultiplication[i][k][l] is the coefficient of b_k⊗b_l in
    # Δ(b_i); at dimension 3 each dense row [v0, v1, v2] has the shape of a
    # sparse triple (k, l, v), which once crashed the parser
    n = 3
    return {
        "constants": [[[int(k == (i + j) % n) for k in range(n)]
                       for j in range(n)] for i in range(n)],
        "unit": [1, 0, 0],
        "comultiplication": [[[int(k == l == i) for l in range(n)]
                              for k in range(n)] for i in range(n)],
        "counit": [1, 1, 1],
        "antipode": [[int(r == (-c) % n) for c in range(n)] for r in range(n)],
    }


def test_hopf_block_labels_are_checked_like_algebra_labels(tmp_path, capsys):
    # the hopf block's algebra goes through the same parser, so a short
    # labels list is refused before any suite runs
    doc = dict(S1_DOC)
    doc.pop("expect")
    doc["suites"] = ["lemma1"]
    doc["hopf"] = dict(_z3_group_hopf_block(), labels=["e", "g"])
    assert main(["verify", _write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert "algebra.labels: 2 labels for 3 elements" in captured.err
    assert captured.out == ""
    doc["hopf"]["labels"] = ["e", "g", "g2"]
    assert main(["verify", _write(tmp_path, doc)]) == 0


def test_explicit_hopf_scenario(tmp_path, capsys):
    doc = dict(S1_DOC)
    doc.pop("expect")
    doc["suites"] = ["lemma1"]
    doc["hopf"] = {
        "constants": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
        "unit": [1, 0],
        "comultiplication": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
        "counit": [1, 1],
        "antipode": [[1, 0], [0, 1]],
    }
    path = _write(tmp_path, doc)
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "hopf.explicit_axioms" in out and "hopf.explicit_operator_reps" in out

    doc["hopf"] = _z3_group_hopf_block()
    path = _write(tmp_path, doc, name="z3_hopf.json")
    assert main(["verify", path, "--format", "structured"]) == 0
    report = parse_structured(capsys.readouterr().out)
    assert report.named("hopf.explicit_axioms").status == "pass"
    assert report.named("hopf.explicit_axioms").measured["dim"] == 3
    assert report.named("hopf.explicit_operator_reps").status == "pass"
