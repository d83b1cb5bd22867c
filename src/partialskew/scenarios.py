"""Declarative scenario files: reading, construction, suite execution.

A scenario is one JSON document naming a field, a group, an algebra and a
partial action, plus the verification suites to run and optional expected
values.  Matrices and vectors are row-major arrays of integers or exact
rational strings ("-3/2"); matrix entry [r][c] is the coefficient of basis
r in the image of basis c.  The one table ``_SPECS`` reads every spec: a
vector becomes a sparse vector ``{index: scalar}`` and a matrix its sparse
columns ``{row: scalar}``, and a malformed entry is refused by JSON path.
"""

from __future__ import annotations

from functools import cached_property
import json
from pathlib import Path
from time import perf_counter

from .actions import (global_action, make_partial_action, restrict_global,
                      trivial_from_split)
from .algebras import (center_basis, direct_product, field_algebra,
                       make_algebra, product_of_fields)
from .errors import InternalCheckFailed, ParseError, ValidationError
from .fields import QQ, parse_field
from .groups import (check_labels, cyclic, direct_product as group_product,
                     make_group, symmetric)
from .report import SKIPPED, CheckResult, Report, check
from .skew import build_skew, grading_report, strong_grading_test
from .smash import build_smash, separability_report, smash_report

# A shape reads one entry: ``shape(data, path, ctx)`` returns its value or
# raises a ParseError naming ``path``.  ``ctx`` holds the field, the group
# order and the dimension "d", which a spec's first cube or table may set.


def _got(data):
    return f"a list of length {len(data)}" if isinstance(data, list) else repr(data)


def _items(data, path, n=None):
    """The (path, item) pairs of a JSON list, of length n when n is given."""
    if not isinstance(data, list) or n not in (None, len(data)):
        of = "" if n is None else f" of length {n}"
        raise ParseError(f"{path} must be a list{of}, got {_got(data)}")
    return [(f"{path}[{i}]", x) for i, x in enumerate(data)]


def _must(test, what):
    """The shape of a JSON value that passes ``test``, ``what`` by name."""
    def read(data, path, ctx):
        if not test(data):
            raise ParseError(f"{path} must be {what}, got {_got(data)}")
        return data
    return read


_any = _must(lambda data: True, "anything")
_positive = _must(lambda data: type(data) is int and data >= 1, "an integer >= 1")


def _field(data, path, ctx):
    """A field token, ``q`` or ``fp:<p>``, as its field."""
    try:
        return parse_field(data)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _vector(data, path, ctx):
    """A JSON list of d scalars as a sparse vector ``{index: scalar}``."""
    if "d" not in ctx:
        raise ParseError(f"{path} needs the scenario's 'algebra' entry")
    vector = {}
    for i, (p, x) in enumerate(_items(data, path, ctx["d"])):
        try:
            x = ctx["field"].parse(x)
        except ParseError as exc:
            raise ParseError(f"{p}: {exc}") from None
        if x:
            vector[i] = x
    return vector


def _matrix(data, path, ctx):
    """A row-major d×d JSON array as its sparse columns ``{row: scalar}``."""
    rows = [_vector(row, p, ctx) for p, row in _items(data, path, ctx.get("d"))]
    return [{r: row[c] for r, row in enumerate(rows) if c in row} for c in range(len(rows))]


def _cube(data, path, ctx):
    """A d×d×d array as sparse rows: row i is ``{j: [(k, v), ...]}`` over the
    nonzero ``data[i][j][k]`` = v.  A spec's first cube sets d >= 1."""
    rows = _items(data, path, ctx.get("d"))
    if not rows:
        raise ParseError(f"{path} must be a non-empty list")
    ctx["d"] = len(rows)
    cells = [[_vector(cell, q, ctx) for q, cell in _items(row, p, len(rows))]
             for p, row in rows]
    return [{j: list(cell.items()) for j, cell in enumerate(row) if cell} for row in cells]


def _table(data, path, ctx):
    """A Cayley table, a JSON list of rows; ``make_group`` reads the rest."""
    ctx["d"] = len([_items(row, p) for p, row in _items(data, path)])
    return data


def _labels(data, path, ctx):
    try:
        check_labels([x for _, x in _items(data, path)], ctx["d"])
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return data


def _list(shape, n):
    """A JSON list of n ``shape``s; n is a number, or "order", the group's."""
    def read(data, path, ctx):
        return [shape(x, p, ctx) for p, x in _items(data, path, ctx.get(n, n))]
    return read


def _spec(family):
    """A spec of ``family``, read and built on its own."""
    return lambda data, path, ctx: _walk(family, data, path, {"field": ctx.get("field")})


def _matrix_algebra(ctx, e):
    from .constructions import matrix_algebra
    return matrix_algebra(field_algebra(ctx["field"]), e["size"])


def _explicit_hopf_checks(ctx, e):
    """The one group of checks of an explicit Hopf block, like a runner's."""
    from .hopf import hopf_data_checks, make_hopf
    triples = [[(k, l, v) for k, cell in row.items() for l, v in cell]
               for row in e["comultiplication"]]
    try:
        algebra = make_algebra(ctx["field"], e["constants"], e["unit"],
                               labels=e.get("labels"))
        data = make_hopf(algebra, triples, e["counit"], e["antipode"])
    except ValidationError as exc:
        yield [check("hopf.explicit_axioms", {}, str(exc))]
        return
    results = hopf_data_checks(data)[0]
    for c in results:
        c.name = c.name.replace("hopf.", "hopf.explicit_", 1)
    yield results


def _entries(entries, data, path, ctx):
    """The values of ``entries`` in the object ``data``, those of an object
    an entry holds merged in."""
    where = path or "scenario"
    if not isinstance(data, dict):
        raise ParseError(f"{where} must be an object, got {_got(data)}")
    keys = {name.rstrip("?"): name for name in entries}
    for key in data:
        if key not in keys:
            raise ParseError(f"{where} has an unknown entry {key!r} "
                             f"(expected one of {', '.join(keys)})")
    values = {}
    for key, name in keys.items():
        p, shape = f"{path}.{key}" if path else key, entries[name]
        if key not in data:
            if name == key:
                raise ParseError(f"{where} is missing its {key!r} entry")
        elif isinstance(shape, dict):
            values.update(_entries(shape, data[key], p, ctx))
        else:
            values[key] = shape(data[key], p, ctx)
    return values


def _walk(family, data, path, ctx):
    """Read a spec of ``family`` through ``_SPECS`` and build it."""
    kinds = _SPECS[family]
    found = [k for k in kinds if k is None or isinstance(data, dict) and k in data]
    if len(found) != 1:
        raise ParseError(f"{path} must be an object naming exactly one of "
                         f"{', '.join(kinds)}, got {_got(data)}")
    entries, build = kinds[found[0]]
    try:
        return build(ctx, _entries(entries, data, path, ctx))
    except (RecursionError, ValueError) as exc:
        raise ParseError(f"{path}.{found[0]}: {exc}") from None


def build_group(spec):
    return _walk("group", spec, "group", {})


def build_algebra(field, spec):
    return _walk("algebra", spec, "algebra", {"field": field})


def build_action(field, group, algebra, spec):
    # without an algebra d is unset, and the first vector read refuses
    ctx = {"field": field, "group": group, "algebra": algebra, "order": group.order}
    if algebra is not None:
        ctx["d"] = algebra.dim
    return _walk("action", spec, "action", ctx)


def load_scenario(path):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason} at byte "
                         f"{exc.start}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except (RecursionError, ValueError) as exc:   # past int()'s digits or the stack
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: scenario must be a JSON object")
    doc.setdefault("name", path.stem)
    return doc


class _build(cached_property):
    """A ``cached_property`` that caches a refusal too: a build that raised
    InternalCheckFailed or ValidationError raises that exception again on
    every later read, and is not run again."""

    def __get__(self, run, owner=None):
        if run is not None and self.attrname in run.refused:
            raise run.refused[self.attrname]
        try:
            return super().__get__(run, owner)
        except (InternalCheckFailed, ValidationError) as exc:
            run.refused[self.attrname] = exc
            raise


class _ScenarioRun:
    """Lazily builds the derived structures a suite needs, once each, and
    records in ``measured`` the dimensions of what it builds, so a key is
    measured exactly when its build ran; a build that refused is recorded in
    ``refused`` and its refusal raised again to every later suite that reads
    it.  The duality layer and the matrix algebra's module are imported by
    the first build that needs them."""

    def __init__(self, action):
        self.action = action
        self.refused = {}   # build name -> the exception it raised
        self.measured = {"algebra_dimension": action.algebra.dim,
                         "ideal_dimensions": [sp.dim for sp in action.ideals],
                         "global": action.is_global()}

    @_build
    def skew(self):
        skew = build_skew(self.action)
        self.measured["skew_dimension"] = skew.dim
        return skew

    @_build
    def smash(self):
        smash = build_smash(self.skew)
        self.measured["smash_dimension"] = smash.dim
        return smash

    @_build
    def duality(self):
        from .duality import build_duality
        d = build_duality(self.smash)
        self.measured.update(kernel_dimension=d.kernel.dim,
                             corner_dimension=d.image.dim,
                             matrix_dimension=d.mat.dim)
        return d

    @_build
    def matrix(self):
        if "duality" in self.__dict__:
            return self.duality.mat
        from .constructions import matrix_algebra
        return matrix_algebra(self.action.algebra, self.action.group)


# Each runner yields the check groups of its suite.  It calls the layers
# through this module's bindings at call time, so a wrapper bound over a
# layer function here sees the call.

def _lemma1(run):
    from .lemma1 import dot_identities_report
    yield dot_identities_report(run.action)


def _grading(run):
    yield grading_report(run.skew)
    st = strong_grading_test(run.skew)
    run.measured["strong"] = st["strong"]
    label = run.action.group.label
    if st["agree"]:
        witness = None
    elif st["global"]:
        g, h = st["pair"]
        witness = f"global, but R_g·R_h misses R_gh at (g={label(g)}, h={label(h)})"
    else:
        unit = run.action.algebra.unit
        g = next(g for g, e in enumerate(run.action.idempotents) if e != unit)
        witness = f"strongly graded, but D_g != A at g={label(g)}"
    yield [check("grading.strong_iff_global",
                 {"strong": st["strong"], "global": st["global"]}, witness)]


def _duality(run):
    from .duality import (corner_report, decomposition_report,
                          kernel_report, skew_injectivity_report)
    yield smash_report(run.smash)
    d = run.duality
    yield kernel_report(d)
    yield corner_report(d)
    yield decomposition_report(d)
    yield skew_injectivity_report(d)


def _separability(run):
    yield separability_report(run.smash)


def _hopf(run):
    from .hopf import hopf_lift_suite
    yield hopf_lift_suite(run.action, run.skew)


def _centers(run):
    dims = {"algebra_center_dimension": center_basis(run.action.algebra).dim,
            "skew_center_dimension": center_basis(run.skew.algebra).dim,
            "smash_center_dimension": center_basis(
                run.smash.algebra, run.smash.generators()).dim,
            "matrix_center_dimension": center_basis(
                run.matrix, run.matrix.generators()).dim}
    run.measured.update(dims)
    yield [check("centers.computed", dims)]


# The one suite table, name -> (description, runner), in run order: the
# default suite list, the CLI's --suite choices and list-suites read it.
SUITES = {
    "lemma1": ("evaluation identities of the dot calculus, exhaustively on the basis",
               _lemma1),
    "grading": ("graded structure of the twisted group ring; strong iff global",
                _grading),
    "duality": ("matrix map: kernel/image formulas, corner splitting, embeddings",
                _duality),
    "separability": ("separating element; the smash is free over the twisted "
                     "ring: check in |G| copies", _separability),
    "hopf": ("group-algebra lift: Hopf axioms, coaction, partial smash, "
             "operator duality", _hopf),
    "centers": ("center dimensions of the algebra, twisted ring, smash and "
                "matrix target", _centers),
}


# an object or a list among the names is refused as such, not as unhashable
_SUITE_NAMES = _list(_must(lambda s: isinstance(s, str) and s in SUITES,
                           f"one of {', '.join(SUITES)}"), None)


# The one table of spec kinds, family -> {kind: (entries, builder)}.  A spec
# names exactly one kind; the hopf block and the document have one, None.
# ``entries`` maps each entry, in reading order, to its shape or to the
# entries of the object it holds; a name ending in "?" may be left out, and
# any other key is refused.  ``builder(ctx, values)`` builds the spec (like
# a runner, through this module's bindings).  A ValueError (a Cayley table's
# products) or a nesting too deep to walk names the kind's entry.
_SPECS = {
    "group": {
        "cyclic": ({"cyclic": _positive}, lambda c, e: cyclic(e["cyclic"])),
        "symmetric": ({"symmetric": _positive}, lambda c, e: symmetric(e["symmetric"])),
        "direct_product": ({"direct_product": _list(_spec("group"), 2)},
                           lambda c, e: group_product(*e["direct_product"])),
        "table": ({"table": _table, "labels?": _labels},
                  lambda c, e: make_group(e["table"], e.get("labels"))),
    },
    "algebra": {
        "product_of_fields": ({"product_of_fields": _positive}, lambda c, e:
                              product_of_fields(c["field"], e["product_of_fields"])),
        "matrix": ({"matrix": {"size": _positive}}, _matrix_algebra),
        "direct_product": ({"direct_product": _list(_spec("algebra"), 2)},
                           lambda c, e: direct_product(*e["direct_product"])),
        "constants": ({"constants": _cube, "unit": _vector, "labels?": _labels},
                      lambda c, e: make_algebra(c["field"], e["constants"], e["unit"],
                                                labels=e.get("labels"))),
    },
    "action": {
        "trivial_split": ({"trivial_split": {"left": _spec("algebra"),
                                             "right": _spec("algebra")}},
                          lambda c, e: trivial_from_split(e["left"], e["right"], c["group"])),
        "restrict_global": ({"restrict_global": {"automorphisms": _list(_matrix, "order"),
                                                 "idempotent": _vector}},
                            lambda c, e: restrict_global(global_action(
                                c["group"], c["algebra"], e["automorphisms"]), e["idempotent"])),
        "explicit": ({"explicit": {"idempotents": _list(_vector, "order"),
                                   "beta": _list(_matrix, "order")}},
                     lambda c, e: make_partial_action(c["group"], c["algebra"],
                                                      e["idempotents"], e["beta"])),
    },
    "hopf": {None: ({"constants": _cube, "unit": _vector, "labels?": _labels,
                     "comultiplication": _cube, "counit": _vector, "antipode": _matrix},
                    _explicit_hopf_checks)},
    "scenario": {None: ({"name?": _must(lambda x: isinstance(x, str), "a string"),
                         "field?": _field, "group": _any, "algebra?": _any, "action": _any,
                         "suites?": _SUITE_NAMES,
                         "expect?": _must(lambda x: isinstance(x, dict), "an object"),
                         "hopf?": _any},
                        lambda c, e: {"name": "scenario", "field": QQ, "suites": SUITES,
                                      "expect": {}, **e})},
}


def _refusal_as_check(groups, name):
    """The groups one runner yields, until a builder it calls refuses
    (InternalCheckFailed, or a ValidationError past the input action): the
    refusal is then one last group, the failed check ``name`` with its text."""
    try:
        yield from groups
    except (InternalCheckFailed, ValidationError) as exc:
        yield [check(name, {}, str(exc))]


def run_scenario(source, suites=None, field_override=None):
    """Execute a scenario and return its Report.

    Raises ParseError for malformed input and ValidationError when the
    scenario's action data fails an axiom; expectation mismatches and failed
    checks are recorded in the report, not raised.  The selected suites run
    once each, in table order; the checks of an explicit ``hopf`` block
    follow them.  A builder's refusal ends its suite with the failed check
    ``<suite>.refused`` (``hopf.explicit_refused`` for the block).
    """
    doc = _walk("scenario", source if isinstance(source, dict) else load_scenario(source), "", {})
    field = doc["field"] if field_override is None else parse_field(field_override)
    hopf = _walk("hopf", doc["hopf"], "hopf", {"field": field}) if "hopf" in doc else None
    group = build_group(doc["group"])
    algebra = build_algebra(field, doc["algebra"]) if "algebra" in doc else None
    action = build_action(field, group, algebra, doc["action"])
    selected = _SUITE_NAMES(suites, "suites", {}) if suites else doc["suites"]

    run = _ScenarioRun(action)
    measured = run.measured
    report = Report(doc["name"], [check(
        "action.axioms",
        {"algebra_dimension": measured["algebra_dimension"],
         "ideal_dimensions": str(measured["ideal_dimensions"]),
         "group_order": group.order})])
    runs = [_refusal_as_check(runner(run), f"{s}.refused")
            for s, (_, runner) in SUITES.items() if s in selected]
    if hopf is not None:
        runs.append(_refusal_as_check(hopf, "hopf.explicit_refused"))
    for groups in runs:
        # each group's wall time, the builds it triggers included, goes on
        # its first check (a text-only field)
        start = perf_counter()
        for results in groups:
            if results:
                results[0].seconds = perf_counter() - start
            report.extend(results)
            start = perf_counter()

    expect = doc["expect"]
    for key in sorted(expect):
        name, want = f"expect.{key}", expect[key]
        if key in measured:
            got = measured[key]
            result = check(name, {"expected": str(want), "measured": str(got)},
                           None if got == want else
                           f"ExpectationMismatch: expected {want!r}, measured {got!r}")
        elif suites:
            # the caller deliberately narrowed the run; expectations of
            # skipped suites are not failures, so this one names its reason
            # without failing
            result = CheckResult(name, SKIPPED, {},
                                 [f"{key} is not measured by the selected suites"])
        else:
            result = check(name, {}, f"ExpectationMismatch: {key} was never measured "
                                     f"(enable the suite that computes it)")
        report.checks.append(result)
    return report


# Found next to this module rather than through ``importlib.resources``,
# which from Python 3.12 on imports ``inspect`` when it loads.
FIXTURES = Path(__file__).with_name("fixtures")


def bundled_fixtures():
    """Names of the scenario files shipped with the package."""
    return sorted(p.name for p in FIXTURES.iterdir() if p.name.endswith(".json"))


def fixture_path(name):
    target = FIXTURES / name
    if not target.is_file():
        raise ParseError(f"no bundled scenario named {name!r}")
    return target
