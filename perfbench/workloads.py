"""Workload plans: which scenario runs a pass makes, in which order.

A plan is a list of ``{"path", "override", "field", "key"}`` entries.
``path`` is a scenario file, ``override`` the ``--field`` override (or None),
``field`` the field the run uses and ``key`` the name under which the check
names recorded at the benchmark's base commit are kept in
``expected_checks.json``.  The seed and the variant (the pass's index in
its run) permute the corpus runs and relabel S3; they never change a
dimension or an expectation.  Varying them from pass to pass averages a
run over several labellings: the time of the S3 separability instance
depends on the labelling by up to 8 %, through the elimination's fill-in.
"""

from __future__ import annotations

import json
import random
from itertools import permutations
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
FIXTURES = ROOT / "src" / "partialskew" / "fixtures"
OUT_DIR = BENCH_DIR / "out"

# Pinned by name rather than taken from bundled_fixtures(), so that a fixture
# added to the package later does not change the workload.
CORPUS = ("global_z2_swap", "s1", "split_field2_z3", "split_m2_z2", "z3_restrict")
CORPUS_FIELDS = ("q", "fp:5", "fp:2")

WORKLOADS = ("corpus", "s3_split", "s3_separability")


def s3_cayley(seed):
    """S3 as an explicit Cayley table whose element order depends on seed (any
    value ``random.Random`` accepts).

    Elements are the permutations of {0, 1, 2} under composition
    (p*q)(x) = p(q(x)), placed at positions given by a seeded shuffle.
    """
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    product = [[index[tuple(p[q[x]] for x in range(3))] for q in perms]
               for p in perms]
    pos = list(range(len(perms)))
    random.Random(seed).shuffle(pos)
    table = [[0] * len(perms) for _ in perms]
    for a in range(len(perms)):
        for b in range(len(perms)):
            table[pos[a]][pos[b]] = pos[product[a][b]]
    labels = [""] * len(perms)
    for a, p in enumerate(perms):
        labels[pos[a]] = "".join(map(str, p))
    return {"table": table, "labels": labels}


def make_plan(workload, seed, variant=0):
    """Return the scenario runs of pass variant ``variant`` of ``workload`` under ``seed``."""
    rng_seed = f"{seed}.{variant}"
    if workload == "corpus":
        plan = [{"path": str(FIXTURES / f"{name}.json"), "override": field, "field": field,
                 "key": f"{name}@{field}"}
                for name in CORPUS for field in CORPUS_FIELDS]
        random.Random(rng_seed).shuffle(plan)
        return plan
    if workload in ("s3_split", "s3_separability"):
        doc = json.loads((BENCH_DIR / "scenarios" / f"{workload}.json").read_text())
        doc["group"] = s3_cayley(rng_seed)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{workload}-seed{seed}.{variant}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        return [{"path": str(path), "override": None, "field": doc["field"],
                 "key": workload}]
    raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")
