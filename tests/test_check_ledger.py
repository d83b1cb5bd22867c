"""The check ledger of ``src/``, read from its syntax tree.

A check fails exactly when it names a witness (``report.check`` drops the
``None`` witnesses and fails on any other), so a ``check(...)`` call that
passes no witness cannot fail: it restates a proof its builder made.  Those
calls are pinned here by check name, and so are the functions that build a
``CheckResult`` directly.  A new check that cannot fail, or a new record
built around ``check``, has to be listed here deliberately."""

import ast
from pathlib import Path

import partialskew

SRC = Path(partialskew.__file__).parent

# the checks that restate a builder's proof: each passes no witness
RESTATED = [
    "action.axioms",
    "centers.computed",
    "coaction.counit",
    "coaction.multiplicative",
    "duality.corner_idempotent",
    "duality.kernel_two_sided",
    "duality.skew_embedding_argument",
    "grading.base_embedding",
    "grading.components_multiply",
    "hopf.axioms",
    "hopf.corner_maps",
    "hopf.lift_matches_group_dot",
    "hopf.operator_reps",
    "hopf.partial_action_axioms",
    "opduality.idempotent",
    "psmash.associative",
    "smash.skew_embedding",
]

# the functions that build a CheckResult themselves: ``check``, the parser
# of structured reports, the skipped expectation (it names its reason but
# does not fail) and weak coassociativity (it may pass naming the strict
# law's failure)
DIRECT_RESULTS = [
    "hopf.coaction_report",
    "report.check",
    "report.parse_structured",
    "scenarios.run_scenario",
]


def calls_of(source, module, callee):
    """(``module.owner``, call) for each call of the bare name ``callee``
    in ``source``; the owner is the top-level function or class around it,
    or ``<module>``."""
    found = []
    for stmt in ast.parse(source).body:
        owner = getattr(stmt, "name", "<module>")
        found += [(f"{module}.{owner}", node) for node in ast.walk(stmt)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == callee]
    return found


def _package_calls(callee):
    return [call for path in sorted(SRC.glob("*.py"))
            for call in calls_of(path.read_text(encoding="utf-8"), path.stem, callee)]


def witnessless(call):
    """True when a ``check(name, measured=None, *witnesses)`` call passes
    no witness: at most two positional arguments, none of them starred."""
    return (len(call.args) <= 2 and not call.keywords
            and not any(isinstance(arg, ast.Starred) for arg in call.args))


def test_detects_witnessless_checks_and_their_owners():
    source = ("def f():\n"
              "    def g():\n"
              "        return check('a.b', {})\n"
              "    return [check('a.c', {}, w), check('a.d', {}, *ws), check('a.e')]\n"
              "class C:\n"
              "    x = CheckResult('a.f', 'pass')\n")
    calls = calls_of(source, "m", "check")
    assert [owner for owner, _ in calls] == ["m.f"] * 4
    assert sorted(ast.literal_eval(call.args[0]) for _, call in calls
                  if witnessless(call)) == ["a.b", "a.e"]
    assert [owner for owner, _ in calls_of(source, "m", "CheckResult")] == ["m.C"]


def test_the_checks_that_name_no_witness_are_the_restated_proofs():
    names = [ast.literal_eval(call.args[0]) for _, call in _package_calls("check")
             if witnessless(call)]
    assert sorted(names) == RESTATED


def test_no_check_call_passes_a_verdict():
    # the second argument is the measured values: a dict display or comprehension,
    # or a name bound to one; never a bool, a comparison or a negation
    for owner, call in _package_calls("check"):
        if len(call.args) > 1:
            assert isinstance(call.args[1], (ast.Dict, ast.DictComp, ast.Name)), (
                owner, ast.unparse(call))


def test_check_results_are_built_directly_only_where_listed():
    owners = sorted({owner for owner, _ in _package_calls("CheckResult")})
    assert owners == DIRECT_RESULTS
