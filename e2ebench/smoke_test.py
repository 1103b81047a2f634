#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

Runs every workload at reduced size (--quick: a 4-cluster machine,
workload scale 1, 10 of the 64 sweep jobs), untraced and traced, and
checks that each run prints every metric BENCHMARK.json names, with its
unit, that every job passed, and that the result file parses.

    python3 e2ebench/smoke_test.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}
    problems = []
    for wl in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", wl, "--seed", "7", "--seconds", "0",
                   "--trace", str(trace), "--quick"]
            p = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT)
            tag = "%s trace %d" % (wl, trace)
            before = len(problems)
            if p.returncode != 0:
                problems.append("%s: exit %d" % (tag, p.returncode))
                continue
            result = json.loads(p.stdout.decode().strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: unexpected keys %s" % (tag, sorted(result)))
            if not result["correct"] or result["failed"]:
                problems.append("%s: %d of %d job runs failed" % (
                    tag, result["failed"], result["attempted"]))
            metrics = result["metrics"]
            names = {m["name"] for m in expected[trace]}
            if set(metrics) != names:
                problems.append("%s: metrics differ: missing %s, extra %s" % (
                    tag, sorted(names - set(metrics)),
                    sorted(set(metrics) - names)))
            for m in expected[trace]:
                got = metrics.get(m["name"])
                if got is not None and got["unit"] != m["unit"]:
                    problems.append("%s: %s unit %s, expected %s" % (
                        tag, m["name"], got["unit"], m["unit"]))
                if got is not None and not isinstance(got["value"],
                                                      (int, float)):
                    problems.append("%s: %s is not a number" % (tag, m["name"]))
            path = os.path.join(ROOT, ".bench_build", "e2ebench", "results",
                                "%s-7-trace%d-quick.json" % (wl, trace))
            with open(path) as f:
                saved = json.load(f)
            if saved["result"] != result:
                problems.append("%s: result file differs from stdout" % tag)
            print("ok  " if len(problems) == before else "FAIL", tag,
                  flush=True)
    for p in problems:
        print("FAIL:", p)
    print("smoke test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
