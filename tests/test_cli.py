import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from partialskew.cli import main
from partialskew.errors import ParseError
from partialskew.report import emit_report, parse_structured
from partialskew.scenarios import (EXPECT_KEYS, bundled_fixtures, fixture_path,
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
     "action.trivial_split.left.product_of_fields"),
    (_split_doc({"cyclic": 2}, {"matrix": {"size": "2"}}, FIELD_ONE), "matrix.size"),
    (_split_doc({"cyclic": 2}, {"matrix": {}}, FIELD_ONE), "'size'"),
    (_split_doc({"cyclic": 2}, None, FIELD_ONE), "'left'"),
    (_split_doc({"cyclic": 2}, FIELD_ONE, None), "'right'"),
    (_split_doc({"cyclic": 2}, FIELD_ONE, FIELD_ONE, suites="duality"), "suites"),
    (_split_doc({"cyclic": 2}, FIELD_ONE, FIELD_ONE, suites=["nope"]),
     "suites[0] must be one of lemma1, grading, duality, separability, hopf, "
     "centers, got 'nope'"),
    # a suite that is not a string is refused by name, not as unhashable
    (_split_doc({"cyclic": 2}, FIELD_ONE, FIELD_ONE, suites=[["grading"]]),
     "suites[0] must be one of lemma1, grading, duality, separability, hopf, "
     "centers, got a list of length 1"),
    (_split_doc({"cyclic": 2}, FIELD_ONE, FIELD_ONE, suites=[{}]),
     "suites[0] must be one of lemma1, grading, duality, separability, hopf, "
     "centers, got {}"),
    *[(_split_doc({"cyclic": 2}, FIELD_ONE, FIELD_ONE,
                  hopf={k: v for k, v in HOPF_Z2.items() if k != key}),
       f"hopf is missing its {key!r} entry") for key in HOPF_Z2],
    (_split_doc({"cyclic": 2}, FIELD_ONE, FIELD_ONE, hopf=[]), "hopf must be an object"),
    # an unknown key is refused whatever its value, the removed hopf_lift
    # too, by one line naming the entries a document may hold
    (_split_doc({"cyclic": 2}, FIELD_ONE, FIELD_ONE, hopf_lift=True),
     "error: scenario has an unknown entry 'hopf_lift' (expected one of name, field, "
     "group, algebra, action, suites, expect, hopf)\n"),
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
     "group.direct_product must be a list of length 2, got 3"),
    (_split_doc({"cyclic": 2}, {"direct_product": 3}, FIELD_ONE),
     "action.trivial_split.left.direct_product must be a list of length 2, got 3"),
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
    # a spec names exactly one kind, and holds no key its kind does not read
    (_split_doc({"cyclic": 2, "symmetric": 3}, FIELD_ONE, FIELD_ONE),
     "group must be an object naming exactly one of cyclic, symmetric, direct_product, "
     "table, got {'cyclic': 2, 'symmetric': 3}"),
    (_split_doc({"cyclic": 2, "labels": ["e", "g"]}, FIELD_ONE, FIELD_ONE),
     "group has an unknown entry 'labels' (expected one of cyclic)"),
    (_split_doc({"cyclic": 2}, {"matrix": {"size": 2, "labels": []}}, FIELD_ONE),
     "action.trivial_split.left.matrix has an unknown entry 'labels' (expected one of size)"),
    (_split_doc({"cyclic": 2}, FIELD_ONE, FIELD_ONE, comment="x"),
     "scenario has an unknown entry 'comment'"),
    (_split_doc({"cyclic": 2}, FIELD_ONE, {"cyclic": 2}),
     "action.trivial_split.right must be an object naming exactly one of product_of_fields"),
    ({**_on_field({"explicit": {"idempotents": [[1]], "beta": [[[1]]]}}), "algebra": None},
     "algebra must be an object naming exactly one of "),
    ({key: value for key, value in _on_field({"explicit": {
        "idempotents": [[1]], "beta": [[[1]]]}}).items() if key != "algebra"},
     "action.explicit.idempotents[0] needs the scenario's 'algebra' entry"),
    (_on_field({"explicit": {"idempotents": [[1], [1]], "beta": [[[1]]]}}),
     "action.explicit.idempotents must be a list of length 1, got a list of length 2"),
    (_on_field({"explicit": {"idempotents": [[True]], "beta": [[[1]]]}}),
     "action.explicit.idempotents[0][0]: bad rational literal True"),
    (_on_field({"explicit": {"idempotents": [[1]], "beta": [[[0.5]]]}}),
     "action.explicit.beta[0][0][0]: bad rational literal 0.5"),
])
def test_malformed_scenario_fields_exit_two(tmp_path, capsys, doc, message):
    assert main(["verify", _write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("where", ["algebra", "hopf"])
def test_zero_dimensional_constants_exit_two(tmp_path, capsys, where):
    # a constants cube has side at least 1: a trivial split of two
    # 0-dimensional algebras once ran every suite and failed only
    # separability.element_nonzero (exit 1), as if the input were sound
    empty = {"constants": [], "unit": []}
    if where == "algebra":
        doc, path = _split_doc({"cyclic": 2}, empty, empty), "action.trivial_split.left"
    else:
        doc = _split_doc({"cyclic": 2}, FIELD_ONE, FIELD_ONE, hopf=dict(HOPF_Z2, **empty))
        path = "hopf"
    assert main(["verify", _write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}.constants must be a non-empty list\n"


@pytest.mark.parametrize("literal", ["3/ 4", "1_000", "1e999999999"])
def test_a_bad_literal_is_the_same_error_line_over_every_field(tmp_path, capsys, literal):
    doc = _on_field({"explicit": {"idempotents": [[1]], "beta": [[[literal]]]}})
    path = _write(tmp_path, doc)
    errors = set()
    for field in ("q", "fp:5", "fp:2"):
        assert main(["verify", path, "--field", field]) == 2
        errors.add(capsys.readouterr().err)
    assert len(errors) == 1
    assert errors.pop().startswith(f"error: action.explicit.beta[0][0][0]: bad rational "
                                   f"literal {literal!r}: ")


@pytest.mark.parametrize("text", [
    '{"group": {"cyclic": ' + "1" * 5000 + "}}",
    "[" * 100000 + "]" * 100000,
    json.dumps({"group": {"cyclic": 1}, "action": {"trivial_split": {
        "left": FIELD_ONE, "right": FIELD_ONE}}}).replace(
            '{"cyclic": 1}', '{"direct_product": [' * 400 + '{"cyclic": 1}'
            + ', {"cyclic": 1}]}' * 400),
], ids=["more_digits_than_int_reads", "nested_past_the_decoder", "nested_past_the_walker"])
def test_oversized_documents_exit_two(tmp_path, capsys, text):
    path = tmp_path / "oversized.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


def _matrix_doc(kind, matrix):
    """The trivial group on field^2 with one action matrix, handed in as an
    ``explicit.beta`` or a ``restrict_global.automorphisms`` entry."""
    if kind == "explicit":
        action = {"explicit": {"idempotents": [[1, 1]], "beta": [matrix]}}
    else:
        action = {"restrict_global": {"automorphisms": [matrix], "idempotent": [1, 1]}}
    return {"name": "bad-matrix", "group": {"cyclic": 1},
            "algebra": {"product_of_fields": 2}, "action": action, "suites": ["lemma1"]}


@pytest.mark.parametrize("kind, path", [
    ("explicit", "action.explicit.beta[0]"),
    ("restrict_global", "action.restrict_global.automorphisms[0]")])
@pytest.mark.parametrize("matrix, at, message", [
    ([], "", "must be a list of length 2, got a list of length 0"),
    (5, "", "must be a list of length 2, got 5"),
    ([[1, 0], [0]], "[1]", "must be a list of length 2, got a list of length 1"),
    ([[1]], "", "must be a list of length 2, got a list of length 1"),
    ([[1, 0, 0], [0, 1, 0]], "[0]", "must be a list of length 2, got a list of length 3"),
    ([[1, 0], 7], "[1]", "must be a list of length 2, got 7"),
])
def test_malformed_action_matrix_exits_two(tmp_path, capsys, kind, path, matrix, at,
                                           message):
    # the one error line names the row or the matrix by its JSON path
    assert main(["verify", _write(tmp_path, _matrix_doc(kind, matrix))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}{at} {message}\n"


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
    assert captured.err.startswith("error: field: unknown field token ")


@pytest.mark.parametrize("key", ["nonsense", "skew_dim", "Global"])
def test_an_expect_key_no_run_measures_exits_two_by_every_route(tmp_path, capsys, key):
    # a misspelled key is refused as the document is read, whether or not
    # --suite narrows the run: it is never skipped or left unmeasured
    path = _write(tmp_path, dict(S1_DOC, expect={key: 3, "skew_dimension": 3}))
    for argv in (["verify", path], ["verify", path, "--suite", "lemma1"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: expect.{key} is not a measured key (expected one of "
            f"{', '.join(EXPECT_KEYS)})"]


@pytest.mark.parametrize("expect, line", [
    ({"skew_dimension": 3.0}, "expect.skew_dimension must be an integer >= 0, got 3.0"),
    ({"kernel_dimension": True}, "expect.kernel_dimension must be an integer >= 0, got True"),
    ({"smash_dimension": -1}, "expect.smash_dimension must be an integer >= 0, got -1"),
    ({"matrix_center_dimension": "2"},
     "expect.matrix_center_dimension must be an integer >= 0, got '2'"),
    ({"strong": 0}, "expect.strong must be true or false, got 0"),
    ({"global": "false"}, "expect.global must be true or false, got 'false'"),
    ({"ideal_dimensions": 2}, "expect.ideal_dimensions must be a list, got 2"),
    ({"ideal_dimensions": [2, True]},
     "expect.ideal_dimensions[1] must be an integer >= 0, got True"),
    # every value is of the wrong type; the first in document order is named
    ({"algebra_dimension": 2.0, "skew_dimension": 3.0, "strong": 0, "global": 0,
      "ideal_dimensions": [2, True]},
     "expect.algebra_dimension must be an integer >= 0, got 2.0"),
], ids=["float", "bool-count", "negative", "string-count", "int-truth", "string-truth",
        "scalar-list", "bool-in-list", "all-five"])
def test_an_expect_value_of_the_wrong_type_exits_two_by_every_route(tmp_path, capsys,
                                                                    expect, line):
    # measured values are compared with ==, where 2.0 == 2, 0 == False and
    # True == 1: a value is read by the shape of its key, so a wrong type is
    # refused as the document is read, whether or not --suite narrows the run
    path = _write(tmp_path, dict(S1_DOC, suites=["grading"], expect=expect))
    for argv in (["verify", path], ["verify", path, "--suite", "grading"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {line}"]


def test_the_text_result_line_counts_skipped_checks(capsys):
    # a run narrowed by --suite skips the expectations it does not measure
    # and says how many; a run that skips none prints no count
    s1 = str(fixture_path("s1.json"))
    assert main(["verify", s1, "--suite", "lemma1"]) == 0
    narrowed = capsys.readouterr().out.splitlines()
    skipped = sum(1 for row in narrowed if row.split()[1:2] == ["skipped"])
    assert skipped == 7
    assert narrowed[-1] == "result: PASS (10/17 checks passed, 7 skipped)"
    assert main(["verify", s1]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "result: PASS (57/57 checks passed)"


@pytest.mark.parametrize("token", ["fp:1_1", "fp:٥", "fp:+5", "fp: 5", " fp:5 ",
                                   "Q", "qq", "rationals"])
def test_a_token_outside_the_grammar_exits_two_by_every_route(tmp_path, capsys, token):
    # exactly "q" and "fp:" with ASCII digits are read: nothing is stripped,
    # case-folded or read by int() past them; the --field of verify and of
    # selftest print one line, and the document's entry names its path
    want = f"unknown field token {token!r} (expected 'q' or 'fp:<p>')"
    for argv, line in ((["verify", str(fixture_path("s1.json")), "--field", token], want),
                       (["selftest", "--field", token], want),
                       (["verify", _write(tmp_path, dict(S1_DOC, field=token))],
                        f"field: {want}")):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {line}"]


@pytest.mark.parametrize("token", ["q", "fp:5", "fp:05"])
def test_a_token_in_the_grammar_is_read_by_every_route(tmp_path, capsys, token):
    doc = dict(S1_DOC, suites=["lemma1"], expect={})
    assert main(["verify", _write(tmp_path, dict(doc, field=token))]) == 0
    assert main(["verify", _write(tmp_path, doc), "--field", token]) == 0
    assert capsys.readouterr().err == ""


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
    assert "hopf.labels: 2 labels for 3 elements" in captured.err
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


# -- document fuzzing ------------------------------------------------------
#
# Each example mutates one bundled fixture or benchmark S3 document once:
# a value replaced by one of another JSON type, an entry or item dropped, a
# key added, or a spec of another family nested in its place.  Whatever
# the mutation, ``verify`` exits 0, 1 or 2 and raises nothing.  Each run
# selects the lemma1 suite alone, so an example costs milliseconds, and
# drawn integers stay in -1..3, since ``{"symmetric": n}`` forms a Cayley
# table of (n!)² entries and nothing bounds sizes yet.

MUTATION_SOURCES = [load_scenario(fixture_path(name)) for name in bundled_fixtures()] + [
    load_scenario(Path(__file__).resolve().parent.parent / "perfbench" / "scenarios" / name)
    for name in ("s3_split.json", "s3_separability.json")]

SPECS = [{"cyclic": 2}, {"symmetric": 3}, {"table": [[0]]}, FIELD_ONE,
         {"matrix": {"size": 2}}, {"constants": [[[1]]], "unit": [1]},
         {"direct_product": [FIELD_ONE, FIELD_ONE]}, HOPF_Z2,
         {"trivial_split": {"left": FIELD_ONE, "right": FIELD_ONE}},
         {"explicit": {"idempotents": [[1]], "beta": [[[1]]]}}]

JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 3), st.just(0.5),
    st.sampled_from(["", "x", "1/2", "-3/2", "0.5", "1e3", "3/ 4", "lemma1"]),
    st.lists(st.integers(-1, 3), max_size=3), st.just({}))


def _nodes(node, path=()):
    """The paths of every value below ``node``, itself included."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
        node, list) else ()
    for key, child in items:
        yield from _nodes(child, (*path, key))


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(MUTATION_SOURCES)))
    path = draw(st.sampled_from(list(_nodes(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    mutation = draw(st.sampled_from(["replace", "drop", "add", "nest"]))
    if mutation == "replace":
        parent[key] = draw(JSON_VALUES)
    elif mutation == "drop":
        del parent[key]
    elif mutation == "add":
        target = value if isinstance(value, dict) else doc
        extra = draw(st.sampled_from(["extra", "labels", "unit", "symmetric", "size", "hopf"]))
        target[extra] = draw(st.one_of(JSON_VALUES, st.sampled_from(SPECS)))
    else:
        parent[key] = copy.deepcopy(draw(st.sampled_from(SPECS)))
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=mutated_documents(), field=st.sampled_from(["q", "fp:5"]))
def test_mutated_documents_exit_zero_one_or_two(tmp_path_factory, doc, field):
    path = tmp_path_factory.mktemp("fuzz") / "mutated.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--field", field, "--suite", "lemma1"]) in (0, 1, 2)
