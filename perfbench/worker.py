"""One benchmark pass in a fresh interpreter.

Usage: worker.py PLAN_JSON MODE PASS_ID, where MODE is ``run`` (verify every
scenario of the plan, tracing off), ``traced`` (the same with spans) or
``setup`` (import and build the inputs only).  Prints one JSON object on its
last line of standard output.

Times are taken on the speed probe's clock, which leaves out the probe's own
bursts, and are reported both raw (``raw_wall``) and normalised to the
probe's nominal machine (``wall``, ``setup`` and the per-layer times); see
probe.py.

A pass follows the path of ``partialskew verify --format structured``:
``scenarios.run_scenario`` on the scenario file, then
``report.emit_report(..., "structured")``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from probe import SpeedProbe  # noqa: E402
from tracer import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402


class SetupTimer:
    """Sums the time of outermost calls to the scenario set-up functions."""

    def __init__(self, scenarios, clock):
        self.seconds = 0.0
        self._clock = clock
        self._depth = 0
        for name in ("load_scenario", "build_group", "build_algebra", "build_action"):
            setattr(scenarios, name, self._wrap(getattr(scenarios, name)))

    def _wrap(self, fn):
        def timed(*args, **kwargs):
            self._depth += 1
            start = self._clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.seconds += self._clock() - start
        return timed


def _setup_only(scenarios, plan):
    """Build each scenario's inputs the way run_scenario does, and verify nothing."""
    from partialskew.fields import parse_field
    for entry in plan:
        doc = scenarios.load_scenario(entry["path"])
        field = parse_field(entry["override"] or doc.get("field", "q"))
        group = scenarios.build_group(doc["group"])
        algebra = scenarios.build_algebra(field, doc["algebra"]) if "algebra" in doc else None
        scenarios.build_action(field, group, algebra, doc["action"])


def _verify(scenarios, report_mod, plan, tracer):
    runs = []
    for entry in plan:
        if tracer is not None:
            tracer.context = {"scenario": entry["key"], "field": entry["field"]}
        try:
            report = scenarios.run_scenario(entry["path"], field_override=entry["override"])
            text = report_mod.emit_report(report, "structured")
        except Exception as exc:  # a raising run counts as failed, the pass goes on
            runs.append({"key": entry["key"], "error": repr(exc)})
            continue
        runs.append({"key": entry["key"],
                     "sha256": hashlib.sha256(text.encode()).hexdigest(),
                     "checks": {c.name: c.status for c in report.checks}})
    return runs


def main(plan_json, mode, pass_id):
    plan = json.loads(plan_json)
    probe = SpeedProbe()
    probe.start()
    clock = probe.clock
    start = clock()
    import partialskew.report as report_mod
    import partialskew.scenarios as scenarios
    imported = clock()
    if not Path(scenarios.__file__).resolve().is_relative_to(BENCH_DIR.parent / "src"):
        raise SystemExit(f"partialskew was imported from {scenarios.__file__}, "
                         "not from this checkout's src/")

    result = {"pass": pass_id, "mode": mode}
    if mode == "traced":
        tracer = Tracer(pass_id, clock)
        install_start = clock()
        tracer.install()
        start += clock() - install_start
        result["runs"] = _verify(scenarios, report_mod, plan, tracer)
        wall = clock() - start
        probe.stop()
        result["spans"] = tracer.dump()
        layers = layer_metrics(result["spans"])
        speed = probe.speed_factor()
        result["layers"] = {name: value * speed if LAYER_METRICS[name][0] == "s" else value
                            for name, value in layers.items()}
    else:
        timer = SetupTimer(scenarios, clock)
        if mode == "setup":
            _setup_only(scenarios, plan)
        else:
            result["runs"] = _verify(scenarios, report_mod, plan, None)
        wall = clock() - start
        probe.stop()
        speed = probe.speed_factor()
        result["setup"] = (imported - start + timer.seconds) * speed
    result["raw_wall"] = wall
    result["wall"] = wall * speed
    result["speed"] = speed
    result["probe_samples"] = len(probe.bursts)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[2] not in ("run", "traced", "setup"):
        raise SystemExit(__doc__)
    main(*sys.argv[1:])
