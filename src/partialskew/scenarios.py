"""Declarative scenario files: parsing, construction, suite execution.

A scenario is one JSON document naming a field, a group, an algebra and a
partial action, plus the verification suites to run and optional expected
values.  Matrices and vectors are written as row-major arrays whose entries
are exact rational strings ("-3/2") or integers; matrix entry [r][c] is the
coefficient of basis r in the image of basis c.  The parser is the one
reader of these dense arrays: a vector becomes a sparse vector
``{index: scalar}`` and a matrix its sparse columns ``{row: scalar}``, the
forms the library takes.
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
from .fields import parse_field
from .groups import (check_labels, cyclic, direct_product as group_product,
                     make_group, symmetric)
from .report import SKIPPED, CheckResult, Report, check
from .skew import build_skew, grading_report, strong_grading_test
from .smash import build_smash, separability_report, smash_report

def _parse_scalar(field, x):
    if isinstance(x, bool):
        raise ParseError(f"expected a scalar, got boolean {x!r}")
    if isinstance(x, int):
        return field.from_int(x)
    if isinstance(x, str):
        return field.parse(x)
    raise ParseError(f"scalar entries must be integers or exact strings, got {x!r}")


def _parse_entries(field, data):
    """The scalars of a JSON array, in order."""
    if not isinstance(data, list):
        raise ParseError(f"expected a vector, got {type(data).__name__}")
    return [_parse_scalar(field, x) for x in data]


def _parse_vector(field, data, length):
    """A JSON array of ``length`` scalars as a sparse vector ``{index: scalar}``."""
    entries = _parse_entries(field, data)
    if len(entries) != length:
        raise ParseError(f"vector has length {len(entries)}, expected {length}")
    return {i: x for i, x in enumerate(entries) if x}


def _parse_cube(field, data, name, d=None):
    """Sparse rows from a dense d×d×d array: row i is ``{j: cell}`` over the
    nonempty cells, and cell (i, j) lists the (k, v) with ``data[i][j][k]`` =
    v nonzero.  d defaults to ``len(data)``."""
    if not isinstance(data, list):
        raise ParseError(f"{name} must be a d x d x d array")
    if d is None:
        d = len(data)
    if len(data) != d:
        raise ParseError(f"{name} has {len(data)} rows, expected {d}")
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != d:
            raise ParseError(f"{name}[{i}] must be a list of {d} cells")
        cells = {}
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != d:
                raise ParseError(f"{name}[{i}][{j}] must be a list of {d} entries")
            entries = [(k, _parse_scalar(field, x)) for k, x in enumerate(cell)]
            nonzero = [(k, v) for k, v in entries if v]
            if nonzero:
                cells[j] = nonzero
        rows.append(cells)
    return rows


def _parse_matrix(field, data, size):
    """A row-major size×size JSON array as its sparse columns ``{row: scalar}``."""
    if not isinstance(data, list) or not data:
        raise ParseError("expected a non-empty matrix")
    rows = [_parse_entries(field, row) for row in data]
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("matrix rows have unequal lengths")
    if len(rows) != size or len(rows[0]) != size:
        raise ParseError(f"matrix is {len(rows)}x{len(rows[0])}, expected {size}x{size}")
    columns = [{} for _ in range(size)]
    for r, row in enumerate(rows):
        for c, x in enumerate(row):
            if x:
                columns[c][r] = x
    return columns


def _entry(spec, key, where):
    """spec[key], or a ParseError naming the missing key."""
    if not isinstance(spec, dict):
        raise ParseError(f"{where} must be an object")
    if key not in spec:
        raise ParseError(f"{where} is missing its {key!r} entry")
    return spec[key]


def _list_entry(spec, key, where, length=None):
    """spec[key] as a JSON list, of ``length`` items when given, else
    ParseError naming the entry."""
    x = _entry(spec, key, where)
    if not isinstance(x, list) or (length is not None and len(x) != length):
        items = "" if length is None else f" of {length} items"
        got = f"{len(x)} items" if isinstance(x, list) else repr(x)
        raise ParseError(f"{where}.{key} must be a list{items}, got {got}")
    return x


def _positive_int(spec, key, where):
    """spec[key] as a JSON integer >= 1 (not a boolean), else ParseError."""
    x = _entry(spec, key, where)
    if isinstance(x, bool) or not isinstance(x, int) or x < 1:
        raise ParseError(f"{where}.{key} must be an integer >= 1, got {x!r}")
    return x


def build_group(spec):
    if not isinstance(spec, dict):
        raise ParseError("group spec must be an object")
    if "cyclic" in spec:
        return cyclic(_positive_int(spec, "cyclic", "group"))
    if "symmetric" in spec:
        return symmetric(_positive_int(spec, "symmetric", "group"))
    if "direct_product" in spec:
        parts = _list_entry(spec, "direct_product", "group", 2)
        return group_product(build_group(parts[0]), build_group(parts[1]))
    if "table" in spec:
        table = _list_entry(spec, "table", "group")
        if not all(isinstance(row, list) for row in table):
            raise ParseError("group.table must be a list of rows")
        labels = None
        if "labels" in spec:
            labels = _list_entry(spec, "labels", "group")
            try:
                check_labels(labels, len(table))
            except ValueError as exc:
                raise ParseError(f"group.labels: {exc}") from None
        try:
            return make_group(table, labels)
        except ValueError as exc:
            raise ParseError(f"group.table: {exc}") from None
    raise ParseError(f"unknown group spec {sorted(spec)!r}")


def build_algebra(field, spec):
    if not isinstance(spec, dict):
        raise ParseError("algebra spec must be an object")
    if "product_of_fields" in spec:
        return product_of_fields(field, _positive_int(spec, "product_of_fields",
                                                      "algebra"))
    if "matrix" in spec:
        from .constructions import matrix_algebra
        size = _positive_int(spec["matrix"], "size", "matrix")
        return matrix_algebra(field_algebra(field), size)
    if "direct_product" in spec:
        parts = _list_entry(spec, "direct_product", "algebra", 2)
        return direct_product(build_algebra(field, parts[0]),
                              build_algebra(field, parts[1]))
    if "constants" in spec:
        products = _parse_cube(field, spec["constants"], "constants")
        unit = _parse_vector(field, _entry(spec, "unit", "algebra"), len(products))
        labels = None
        if "labels" in spec:
            labels = _list_entry(spec, "labels", "algebra")
            try:
                check_labels(labels, len(products))
            except ValueError as exc:
                raise ParseError(f"algebra.labels: {exc}") from None
        return make_algebra(field, products, unit, labels=labels)
    raise ParseError(f"unknown algebra spec {sorted(spec)!r}")


def build_action(field, group, algebra, spec):
    if not isinstance(spec, dict):
        raise ParseError("action spec must be an object")
    if "trivial_split" in spec:
        split = spec["trivial_split"]
        left = build_algebra(field, _entry(split, "left", "trivial_split"))
        right = build_algebra(field, _entry(split, "right", "trivial_split"))
        return trivial_from_split(left, right, group)
    if algebra is None:
        raise ParseError("this action spec needs an explicit 'algebra' entry")
    if "restrict_global" in spec:
        data = spec["restrict_global"]
        mats = _list_entry(data, "automorphisms", "restrict_global", group.order)
        parsed = [_parse_matrix(field, m, algebra.dim) for m in mats]
        parent = global_action(group, algebra, parsed)
        e = _parse_vector(field, _entry(data, "idempotent", "restrict_global"), algebra.dim)
        return restrict_global(parent, e)
    if "explicit" in spec:
        data = spec["explicit"]
        idems = [_parse_vector(field, v, algebra.dim)
                 for v in _list_entry(data, "idempotents", "explicit")]
        betas = [_parse_matrix(field, m, algebra.dim)
                 for m in _list_entry(data, "beta", "explicit")]
        return make_partial_action(group, algebra, idems, betas)
    raise ParseError(f"unknown action spec {sorted(spec)!r}")


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


# the entries an explicit ``hopf`` block must have, checked before any suite runs
_HOPF_KEYS = ("constants", "unit", "comultiplication", "counit", "antipode")


def _explicit_hopf_checks(field, spec):
    """Validate user-supplied Hopf structure constants and the operator
    layer; yields that one group of checks, like a suite runner."""
    from .hopf import hopf_data_checks, make_hopf
    try:
        algebra = build_algebra(field, {key: spec[key] for key in
                                        ("constants", "unit", "labels")
                                        if key in spec})
        d = algebra.dim
        comul = _parse_cube(field, spec["comultiplication"], "comultiplication", d)
        triples = [[(k, l, v) for k, cell in row.items() for l, v in cell]
                   for row in comul]
        counit = _parse_vector(field, spec["counit"], d)
        antipode = _parse_matrix(field, spec["antipode"], d)
        data = make_hopf(algebra, triples, counit, antipode)
    except ValidationError as exc:
        yield [check("hopf.explicit_axioms", {}, str(exc))]
        return
    results = hopf_data_checks(data)[0]
    for c in results:
        c.name = c.name.replace("hopf.", "hopf.explicit_", 1)
    yield results


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
    doc = load_scenario(source) if not isinstance(source, dict) else dict(source)
    name = doc.get("name", "scenario")
    if not isinstance(name, str):
        raise ParseError("name must be a string")
    if not isinstance(doc.get("suites", []), list):
        raise ParseError("suites must be a list of suite names")

    field = parse_field(doc.get("field", "q") if field_override is None else field_override)

    expect = doc.get("expect", {})
    if not isinstance(expect, dict):
        raise ParseError("expect must be an object of measured values")
    if "hopf_lift" in doc:
        raise ParseError('hopf_lift is no longer read: list "hopf" in suites')
    if "hopf" in doc:
        for key in _HOPF_KEYS:
            _entry(doc["hopf"], key, "hopf")

    if "group" not in doc:
        raise ParseError("scenario is missing its 'group' entry")
    group = build_group(doc["group"])
    algebra = build_algebra(field, doc["algebra"]) if "algebra" in doc else None
    if "action" not in doc:
        raise ParseError("scenario is missing its 'action' entry")
    action = build_action(field, group, algebra, doc["action"])

    selected = suites or doc.get("suites", SUITES)
    for s in selected:
        # a list or an object in "suites" is refused here, not by the dict
        if not isinstance(s, str) or s not in SUITES:
            raise ParseError(f"unknown suite {s!r} (choose from {', '.join(SUITES)})")

    run = _ScenarioRun(action)
    measured = run.measured
    report = Report(name, [check(
        "action.axioms",
        {"algebra_dimension": measured["algebra_dimension"],
         "ideal_dimensions": str(measured["ideal_dimensions"]),
         "group_order": group.order})])
    runs = [_refusal_as_check(runner(run), f"{s}.refused")
            for s, (_, runner) in SUITES.items() if s in selected]
    if "hopf" in doc:
        runs.append(_refusal_as_check(_explicit_hopf_checks(field, doc["hopf"]),
                                      "hopf.explicit_refused"))
    for groups in runs:
        # each group's wall time, the builds it triggers included, goes on
        # its first check (a text-only field)
        start = perf_counter()
        for results in groups:
            if results:
                results[0].seconds = perf_counter() - start
            report.extend(results)
            start = perf_counter()

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
