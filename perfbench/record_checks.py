"""Record the check names each scenario run produces, into expected_checks.json.

Usage: python3 perfbench/record_checks.py

The benchmark counts a run as failed when one of these names is missing, so
that a change which drops a check cannot pass as a speed-up.  Record only at
a commit whose checks all pass; names added later are allowed without
re-recording.
"""

from __future__ import annotations

import json
import sys
import time

from run import BENCH_DIR, run_pass
from workloads import WORKLOADS, make_plan


def main():
    names = {}
    for workload in WORKLOADS:
        result = run_pass(make_plan(workload, 0), "run", f"record-{workload}",
                          time.monotonic() + 600)
        for run in result["runs"]:
            if "error" in run or "fail" in run["checks"].values():
                raise SystemExit(f"{run['key']} does not pass; not recording")
            names[run["key"]] = sorted(run["checks"])
    path = BENCH_DIR / "expected_checks.json"
    path.write_text(json.dumps(dict(sorted(names.items())), indent=1) + "\n")
    print(f"recorded {len(names)} scenario runs in {path.name}")


if __name__ == "__main__":
    sys.exit(main())
