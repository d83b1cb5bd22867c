"""Structured reports are pinned byte for byte.

``golden_reports.json`` holds the SHA-256 of ``emit_report(..., "structured")``
for every bundled fixture over each field (q, fp:5, fp:2 and fp:2⁶¹−1, whose
residue products pass 2⁶⁴), and for the inline documents of
``INLINE`` and ``EXPLICIT_HOPF`` over the fields they list there.  A change to the exact core that
alters any printed dimension, status or witness fails here.  Re-record the
digests only when a report is meant to change, and say why in the change.
The one-pass writer behind the structured form must give byte for byte what
``json.dumps(value, sort_keys=True, indent=2)`` gives, on any nested value.
"""

import hashlib
import json
from pathlib import Path

from hypothesis import given, settings, strategies as st
import pytest

from partialskew.report import _write_json, emit_report
from partialskew.scenarios import bundled_fixtures, fixture_path, run_scenario

GOLDEN = json.loads((Path(__file__).parent / "golden_reports.json").read_text())
FIELDS = ("q", "fp:5", "fp:2", "fp:2305843009213693951")

# k^{S₃}, the dual of the group algebra of S₃ on the dual basis p_g: the
# p_g are orthogonal idempotents, Δ(p_g) = Σ_{xy=g} p_x⊗p_y (not
# cocommutative), ε(p_g) = [g = e] and S(p_g) = p_{g⁻¹}.  S₃_TABLE is the
# product table of ``symmetric(3)``.
S3_TABLE = [[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 3, 0, 1, 5, 4],
            [3, 2, 5, 4, 0, 1], [4, 5, 1, 0, 3, 2], [5, 4, 3, 2, 1, 0]]
S3_INVERSE = [0, 1, 2, 4, 3, 5]
DUAL_S3 = {
    "constants": [[[int(i == j == k) for k in range(6)] for j in range(6)]
                  for i in range(6)],
    "unit": [1] * 6,
    "comultiplication": [[[int(S3_TABLE[k][l] == i) for l in range(6)]
                          for k in range(6)] for i in range(6)],
    "counit": [1, 0, 0, 0, 0, 0],
    "antipode": [[int(i == S3_INVERSE[j]) for j in range(6)] for i in range(6)],
}


def _explicit_hopf_doc(name, block):
    """The s1 group and action with an explicit ``hopf`` block and no suite."""
    return {"name": name, "field": "q", "group": {"cyclic": 2},
            "action": {"trivial_split": {"left": {"product_of_fields": 1},
                                         "right": {"product_of_fields": 1}}},
            "suites": [], "hopf": block}


# Index conventions only differ over a non-abelian group.  The one
# non-abelian fixture, s3_regular_restrict.json, is genuinely partial; the
# S₃ trivial split (smash 42, matrix 72, the Hopf lift at dim 6) is pinned
# too, and its separability at smash 42: the benchmark's own documents,
# read from perfbench/scenarios so that there is one copy of each.
SCENARIOS = Path(__file__).parent.parent / "perfbench" / "scenarios"
INLINE = {name: json.loads((SCENARIOS / f"{name}.json").read_text())
          for name in ("s3_separability", "s3_split")}
# The explicit-hopf path, which no bundled fixture has: over k^{S₃} all four
# checks pass; with S = 1 make_hopf refuses, naming the antipode axiom and
# its first basis element.  Kept apart from INLINE, whose documents other
# test modules run as passing S₃ documents.
EXPLICIT_HOPF = {
    "dual_s3_hopf": _explicit_hopf_doc("dual_s3_hopf", DUAL_S3),
    "dual_s3_identity_antipode": _explicit_hopf_doc(
        "dual_s3_identity_antipode",
        dict(DUAL_S3, antipode=[[int(i == j) for j in range(6)] for i in range(6)])),
}
DOCUMENTS = {**INLINE, **EXPLICIT_HOPF}
FIXTURES = sorted(name for name in GOLDEN if name not in DOCUMENTS)


def _digest(source, field):
    text = emit_report(run_scenario(source, field_override=field), "structured")
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_set_covers_the_corpus():
    assert FIXTURES == bundled_fixtures()
    assert all(sorted(GOLDEN[name]) == sorted(FIELDS) for name in FIXTURES)
    assert all(name in GOLDEN for name in DOCUMENTS)
    assert all(sorted(GOLDEN[name]) == sorted(FIELDS) for name in EXPLICIT_HOPF)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", FIXTURES)
def test_structured_report_digest(name, field):
    assert _digest(fixture_path(name), field) == GOLDEN[name][field]


@pytest.mark.parametrize("name, field", [(name, field) for name in sorted(DOCUMENTS)
                                         for field in sorted(GOLDEN[name])])
def test_inline_report_digest(name, field):
    assert _digest(DOCUMENTS[name], field) == GOLDEN[name][field]


@pytest.mark.parametrize("field", FIELDS)
def test_explicit_hopf_reports(field):
    good = run_scenario(EXPLICIT_HOPF["dual_s3_hopf"], field_override=field)
    assert [c.name for c in good.checks if c.status == "pass"] == [
        "action.axioms", "hopf.explicit_axioms", "hopf.explicit_dual_axioms",
        "hopf.explicit_operator_reps"]
    bad = run_scenario(EXPLICIT_HOPF["dual_s3_identity_antipode"], field_override=field)
    assert bad.named("hopf.explicit_axioms").witnesses == [
        "Hopf axiom 'antipode' fails: basis b0"]


_LEAVES = st.one_of(
    st.text(),   # any code point: non-ASCII, quotes, control characters
    st.sampled_from(["", "\"", "\\", "\n\t\x00\x1f\x7f", "é", "\u2028", "😀"]),
    st.integers(), st.integers(-2**200, 2**200),
    st.booleans(), st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.tuples(inner, inner),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_structured_writer_matches_json_dumps(value):
    out = []
    _write_json(out, value, "")
    assert "".join(out) == json.dumps(value, sort_keys=True, indent=2)
