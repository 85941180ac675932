#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload named in BENCHMARK.json at tiny sizes (--smoke), once
with tracing off and once on, and checks that each run passes its output
checks and emits exactly the metrics BENCHMARK.json declares, with their
units: the end_to_end list with --trace 0, the per_layer list with
--trace 1. Takes about a minute. Usage, from the repository root:

    python3 perfbench/smoke_test.py
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        return None, "exit code %d: %s" % (proc.returncode, proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def check(result, declared):
    problems = []
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append("output checks failed: %s" % {k: result[k] for k in
                                                      ("correct", "attempted", "failed")})
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        problems.append("missing %s, unexpected %s" % (sorted(set(want) - set(metrics)),
                                                       sorted(set(metrics) - set(want))))
    for name, metric in metrics.items():
        if name in want and metric["unit"] != want[name]:
            problems.append("%s: unit %s, declared %s" % (name, metric["unit"], want[name]))
        if not math.isfinite(metric["value"]):
            problems.append("%s: value %r" % (name, metric["value"]))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result, error = run(workload, trace)
            problems = [error] if error else check(result, declared)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("%-20s trace=%d  %s" % (workload, trace, status))
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
