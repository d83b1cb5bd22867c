"""Span recording around calls into partialskew's layers, from outside the package.

Every public module-level function of each layer module is replaced, in every
partialskew module that binds it, by a wrapper that records a span.  Spans
are kept in memory as ``[name, start, end, parent, attrs]`` lists, where
``parent`` is the index of the enclosing span or None.  Nothing under
``src/`` is modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("fields", "linalg", "groups", "algebras", "actions", "skew", "smash",
          "duality", "hopf", "scenarios", "report")

# Elementwise helpers that a pass calls up to ~3e5 times: a span around each
# would cost more than the work it measures, so their time stays in the caller.
UNTRACED = {
    "linalg": {"vzero", "vadd", "vsub", "vscale", "is_zero_vec"},
    "hopf": {"hit", "hit_left", "hit_right", "lambda_matrix", "rho_matrix",
             "mat_to_end_vec", "end_vec_to_mat"},
    "report": {"check"},
}

SETUP_FUNCTIONS = ("load_scenario", "build_group", "build_algebra", "build_action")

# Inclusive time (outermost calls only) of these functions, reported as
# "<layer>.<function>_s".
TIMED_FUNCTIONS = (
    "algebras.make_algebra", "algebras.center_basis", "algebras.matrix_algebra",
    "linalg.rref",
    "duality.build_duality", "duality.kernel_report", "duality.corner_report",
    "duality.decomposition_report", "duality.skew_injectivity_report",
    "duality.separability_report",
    "smash.smash_report",
    "skew.build_skew", "skew.grading_report",
    "hopf.hopf_lift_suite", "hopf.build_representations",
    "hopf.build_corner_maps", "hopf.build_partial_smash",
    "hopf.operator_duality_report",
    "actions.make_partial_action", "actions.dot_identities_report",
    "groups.make_group",
    "report.emit_report",
)

# name -> (unit, better) of every metric a traced pass reports.
LAYER_METRICS = {f"{name}_s": ("s", "lower") for name in TIMED_FUNCTIONS}
LAYER_METRICS.update({
    "smash.build_smash_s": ("s", "lower"),
    "scenarios.parse_s": ("s", "lower"),
    "algebras.make_algebra.calls": ("count", "lower"),
    "algebras.make_algebra.triples": ("count", "lower"),
    "linalg.rref.calls": ("count", "lower"),
    "linalg.rref.entries": ("count", "lower"),
    "linalg.rref.max_entries": ("count", "lower"),
    "linalg.rref.rank_frac": ("ratio", "higher"),
    "fields.fp_over_q": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
})
LAYER_METRICS.update({f"{layer}.self_s": ("s", "lower") for layer in LAYERS})


def _make_algebra_attrs(args, kwargs, result):
    return {"dim": result.dim}


def _rref_attrs(args, kwargs, result):
    rows = args[0]
    return {"rows": len(rows), "cols": len(rows[0]) if rows else 0,
            "rank": len(result[1])}


class Tracer:
    """In-memory span recorder for one pass."""

    def __init__(self, pass_id, clock=time.perf_counter):
        self.pass_id = pass_id
        self.clock = clock
        self.spans = []
        self._stack = []
        self.context = {}

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result
        return traced

    def install(self):
        """Wrap every traced function of partialskew at each of its bindings."""
        package_modules = [m for n, m in list(sys.modules.items())
                           if n == "partialskew" or n.startswith("partialskew.")]
        attrs = {"algebras.make_algebra": _make_algebra_attrs,
                 "linalg.rref": _rref_attrs,
                 "scenarios.run_scenario": lambda a, k, r: dict(self.context)}
        for layer in LAYERS:
            mod = importlib.import_module(f"partialskew.{layer}")
            for attr, fn in list(vars(mod).items()):
                if (not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or attr.startswith("_") or attr in UNTRACED.get(layer, ())):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.wrap(name, fn, attrs.get(name))
                for binder in package_modules:
                    for key, value in list(vars(binder).items()):
                        if value is fn:
                            setattr(binder, key, wrapped)

    def dump(self):
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "pass": self.pass_id, "attrs": s[4] or {}} for s in self.spans]


def layer_metrics(spans):
    """Per-layer metrics of one pass from its spans (the ``dump`` form).

    Self time is a span's duration minus that of its direct children; a
    function's inclusive time counts only calls not nested in a call of the
    same function, so recursion is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    out = {name: 0 if unit == "count" else 0.0
           for name, (unit, _) in LAYER_METRICS.items()}
    rref_rows = rref_rank = 0
    field_time = {}
    for i, s in enumerate(spans):
        name, dur = s["name"], s["end"] - s["start"]
        layer, func = name.split(".", 1)
        self_time = dur - child_time[i]
        out[f"{layer}.self_s"] += self_time
        if name == "smash.build_smash":
            out["smash.build_smash_s"] += self_time
        elif layer == "scenarios" and func in SETUP_FUNCTIONS:
            out["scenarios.parse_s"] += self_time
        if name in TIMED_FUNCTIONS and not _nested_in_same(spans, i):
            out[f"{name}_s"] += dur
        attrs = s["attrs"]
        if name == "algebras.make_algebra":
            out["algebras.make_algebra.calls"] += 1
            out["algebras.make_algebra.triples"] += attrs["dim"] ** 3
        elif name == "linalg.rref":
            entries = attrs["rows"] * attrs["cols"]
            out["linalg.rref.calls"] += 1
            out["linalg.rref.entries"] += entries
            out["linalg.rref.max_entries"] = max(out["linalg.rref.max_entries"], entries)
            rref_rows += attrs["rows"]
            rref_rank += attrs["rank"]
        elif name == "scenarios.run_scenario":
            field = attrs["field"]
            field_time[field] = field_time.get(field, 0.0) + dur
    out["linalg.rref.rank_frac"] = rref_rank / rref_rows if rref_rows else 0.0
    if field_time.get("q") and field_time.get("fp:5"):
        out["fields.fp_over_q"] = field_time["fp:5"] / field_time["q"]
    return out


def _nested_in_same(spans, i):
    name, parent = spans[i]["name"], spans[i]["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False
