#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced on small lakes through
run.py, and checks that each run exits 0 with a correct result, no failed
operation, a run_info line, and exactly the metric names and units that
BENCHMARK.json lists (end_to_end untraced, per_layer traced), each name
matching [A-Za-z0-9_.-]+. Exits non-zero on the first problem.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+")
# Small lakes and short runs; every check still runs.
SCALE = {"od_large": "0.005", "wt_serve": "0.1", "lake_churn": "0.1"}
SECONDS = "2"


def fail(message):
    print("selftest: FAIL: " + message, file=sys.stderr)
    sys.exit(1)


def check_run(workload, trace, expected):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", SECONDS,
               "--trace", str(trace), "--scale", SCALE[workload]]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    tag = "%s --trace %d" % (workload, trace)
    if out.returncode != 0:
        fail("%s exited %d:\n%s" % (tag, out.returncode, out.stderr[-2000:]))
    lines = out.stdout.strip().splitlines()
    if len(lines) < 2 or "run_info" not in json.loads(lines[-2]):
        fail("%s: no run_info line before the result" % tag)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (tag, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s: correct=%s failed=%s" % (tag, result["correct"],
                                           result["failed"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s: attempted=%s" % (tag, result["attempted"]))
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        fail("%s: metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "units %s" % (tag, sorted(set(expected) - set(printed)),
                           sorted(set(printed) - set(expected)),
                           sorted(n for n in printed if n in expected
                                  and printed[n] != expected[n])))
    for name, metric in result["metrics"].items():
        if not NAME.fullmatch(name):
            fail("%s: bad metric name %r" % (tag, name))
        if not isinstance(metric["value"], (int, float)):
            fail("%s: %s is not a number" % (tag, name))
    print("selftest: %s ok (%d operations)" % (tag, result["attempted"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for m in bench["end_to_end"] + bench["per_layer"] + bench["workloads"]:
        if not NAME.fullmatch(m["name"]):
            fail("BENCHMARK.json: bad name %r" % m["name"])
    for workload in (w["name"] for w in bench["workloads"]):
        check_run(workload, 0, end_to_end)
        check_run(workload, 1, per_layer)
    print("selftest: all workloads passed")


if __name__ == "__main__":
    main()
