"""Benchmark of partialskew's verification path, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25     # every workload
    python3 perfbench/run.py --self-test

Each pass runs one workload's scenario runs in a fresh interpreter
(perfbench/worker.py), because real traffic is one verification per process.
Passes repeat, one at a time, until ``--seconds`` is used up.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics
from the traced ones.  Every time is normalised by the speed probe
(probe.py) to a nominal machine, because the raw wall time of the same code
on a shared host spreads more than any useful bound.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tracer import LAYER_METRICS  # noqa: E402
from workloads import OUT_DIR, WORKLOADS, make_plan  # noqa: E402

MIN_PASSES = 2          # untraced passes per run, however long a pass takes
MIN_SETUP_SAMPLES = 25  # set-up-only passes top the set-up samples up to this
RUN_DEADLINE_S = 170.0  # every pass of one run must end within this

END_TO_END = {"verify_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class PassFailed(RuntimeError):
    pass


def run_pass(plan, mode, pass_id, deadline):
    """Run worker.py once and return its result object."""
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(plan), mode, pass_id]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass {pass_id} ({mode}) did not end before the run deadline") from None
    if proc.returncode != 0:
        raise PassFailed(f"pass {pass_id} ({mode}) exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_failures(run, expected):
    """Why a scenario run failed: it raised, a check failed or a recorded check is missing."""
    if "error" in run:
        return [f"raised {run['error']}"]
    bad = [f"check {name} failed" for name, status in run["checks"].items()
           if status == "fail"]
    missing = sorted(set(expected.get(run["key"], ())) - set(run["checks"]))
    return bad + [f"check {name} missing" for name in missing]


def tail_percentile(values):
    """Highest whole percentile (nearest rank) with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return None
    p = 100 * (n - 10) // n
    rank = -(-p * n // 100)  # ceil(p * n / 100) <= n - 10
    return p, sorted(values)[rank - 1]


def measure(workload, seed, seconds, trace):
    """Run one workload for about ``seconds`` and return the run's summary."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    plans = {}

    def plan(variant):
        if variant not in plans:
            plans[variant] = make_plan(workload, seed, variant)
        return plans[variant]

    expected = json.loads((BENCH_DIR / "expected_checks.json").read_text())

    # The first import compiles bytecode, which an installed package already has.
    run_pass(plan(0), "setup", "warmup", deadline)

    modes = ("run", "traced") if trace else ("run",)
    passes = []
    setups = []
    variant = 0

    def top_up_setups(count):
        while len(setups) < count:
            setups.append(run_pass(plan(variant), "setup", f"setup-{len(setups)}",
                                   deadline)["setup"])

    begin = time.monotonic()
    last = 0.0
    while (len(passes) < MIN_PASSES
           or time.monotonic() - begin + last <= seconds):
        # A traced pass uses the variant of the untraced pass before it, so
        # that their reports can be compared byte for byte.
        variant, slot = divmod(len(passes), len(modes))
        mode = modes[slot]
        t = time.monotonic()
        passes.append(run_pass(plan(variant), mode, f"{workload}-{seed}-{len(passes)}",
                               deadline))
        passes[-1]["variant"] = variant
        last = time.monotonic() - t
        if mode == "run":
            setups.append(passes[-1]["setup"])
        # Spread set-up-only passes over the run, so that they see the same
        # machine conditions as the passes rather than one moment at the end.
        top_up_setups(MIN_SETUP_SAMPLES * min(1.0, (time.monotonic() - begin) / seconds))
    top_up_setups(MIN_SETUP_SAMPLES)

    untraced = [p for p in passes if p["mode"] == "run"]
    traced = [p for p in passes if p["mode"] == "traced"]

    problems = []
    attempted = failed = 0
    for p in passes:
        for run in p["runs"]:
            attempted += 1
            why = run_failures(run, expected)
            if why:
                failed += 1
                problems.append(f"{p['pass']} {run['key']}: {'; '.join(why)}")
    digests = {}
    for p in passes:
        for run in p["runs"]:
            if "sha256" in run:
                digests.setdefault((p["variant"], run["key"]), set()).add(run["sha256"])
    problems += [f"{key} (variant {variant}): structured reports differ between passes"
                 for (variant, key), seen in sorted(digests.items()) if len(seen) > 1]
    for p in traced:
        self_total = sum(v for k, v in p["layers"].items() if k.endswith(".self_s"))
        if self_total > p["wall"]:
            problems.append(f"{p['pass']}: layer self times sum to {self_total:.4f} s, "
                            f"more than the pass wall time {p['wall']:.4f} s")

    walls = [p["wall"] for p in untraced]
    summary = {
        "workload": workload, "seed": seed, "attempted": attempted, "failed": failed,
        "problems": problems, "walls": walls, "setups": setups,
        "raw_walls": [p["raw_wall"] for p in untraced],
        "speeds": [p["speed"] for p in untraced],
        "metrics": {"verify_s": statistics.median(walls),
                    "setup_s": statistics.median(setups),
                    "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced)},
    }
    if trace:
        layers = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in LAYER_METRICS}
        layers["trace.overhead_frac"] = (
            statistics.median(p["wall"] for p in traced) / summary["metrics"]["verify_s"] - 1)
        summary["layers"] = layers
        OUT_DIR.mkdir(exist_ok=True)
        summary["trace_file"] = OUT_DIR / f"trace-{workload}-seed{seed}.json"
        summary["trace_file"].write_text(json.dumps([s for p in traced for s in p["spans"]]))
    return summary


def print_summary(s):
    m = s["metrics"]
    walls = s["walls"]
    spread = ""
    if len(walls) > 1:
        q1, _, q3 = statistics.quantiles(walls, n=4)
        spread = f" q1={q1:.4f} q3={q3:.4f}"
    tail = tail_percentile(walls)
    spread += f" p{tail[0]}={tail[1]:.4f}" if tail else " (no percentile has 10 samples above it)"
    print(f"workload {s['workload']}  seed {s['seed']}")
    print(f"  verify_s     {m['verify_s']:.4f} s    n={len(walls)}{spread}")
    print(f"  raw wall     {statistics.median(s['raw_walls']):.4f} s    "
          f"speed factor {statistics.median(s['speeds']):.4f} (median over passes)")
    print(f"  setup_s      {m['setup_s']:.4f} s    n={len(s['setups'])}")
    print(f"  peak_rss_mb  {m['peak_rss_mb']:.1f} MiB")
    print(f"  failed_frac  {s['failed'] / s['attempted']:.4f} ratio "
          f"({s['failed']}/{s['attempted']} scenario runs)")
    for name, value in s.get("layers", {}).items():
        print(f"  {name:40s} {value:.6g} {LAYER_METRICS[name][0]}")
    if "trace_file" in s:
        print(f"  spans written to {s['trace_file'].relative_to(ROOT)}")
    for problem in s["problems"]:
        print(f"  PROBLEM {problem}")


def result_line(s, trace):
    if trace:
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k][0]} for k, v in s["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in s["metrics"].items()}
    return json.dumps({"correct": not s["problems"], "attempted": s["attempted"],
                       "failed": s["failed"], "metrics": metrics})


def self_test(seed):
    """Traced and untraced corpus passes agree, and the metric names match BENCHMARK.json."""
    s = measure("corpus", seed, 1, trace=True)
    print_summary(s)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = list(s["problems"])
    if {m["name"] for m in spec["per_layer"]} != set(s["layers"]):
        problems.append("per_layer metrics in BENCHMARK.json differ from the traced run's")
    if {m["name"] for m in spec["end_to_end"]} != set(s["metrics"]):
        problems.append("end_to_end metrics in BENCHMARK.json differ from the run's")
    for problem in problems:
        print(f"self-test FAIL: {problem}")
    print("self-test:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="corpus")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check traced against untraced corpus passes and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "partialskew" / "__init__.py").is_file():
        print(f"error: no partialskew sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test(args.seed)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        summaries = [measure(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for s in summaries:
        print_summary(s)
    if args.workload == "all":
        return 1 if any(s["problems"] for s in summaries) else 0
    print(result_line(summaries[0], bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
