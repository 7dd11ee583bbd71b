#!/usr/bin/env python3
"""Self-test of the simulator benchmark at tiny sizes.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, untraced and traced, it checks
that every simulation validates, that exactly the metrics BENCHMARK.json
names are printed with their units, and that the stats hash repeats
within a run and across two processes. It also checks that --seed
changes the Barnes-Hut inputs and leaves the seedless synth patterns
alone, that a bad invocation exits non-zero without a result, and that
`run.py --workload all` runs everything.
Exits 0 when every check passes.
"""

import json
import math
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

FAILURES = []


def check(cond, what):
    if not cond:
        FAILURES.append(what)
        print("FAIL: " + what)


def bench(exe, workload, seed, trace):
    proc = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed), "--seconds",
         "0.01", "--trace", str(trace), "--size", "tiny"],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    hashes = set(re.findall(r"stats_hash=([0-9a-f]{16})", proc.stdout))
    return proc.returncode, result, hashes


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    exe = run.build()
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            tag = "%s trace=%d" % (w, trace)
            code, res, hashes = bench(exe, w, 5, trace)
            check(code == 0, tag + ": exit code %d" % code)
            check(sorted(res) == ["attempted", "correct", "failed",
                                  "metrics"], tag + ": result keys")
            check(res["correct"] is True and res["failed"] == 0,
                  tag + ": simulations validate")
            check(res["attempted"] >= (4 if trace else 2),
                  tag + ": repeats the simulation")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == wanted[trace], tag + ": metric names and units")
            check(all(isinstance(v["value"], (int, float)) and
                      math.isfinite(v["value"])
                      for v in res["metrics"].values()),
                  tag + ": metric values are finite numbers")
            check(len(hashes) == 1, tag + ": one stats hash per run")
            _, _, again = bench(exe, w, 5, trace)
            check(again == hashes, tag + ": stats hash repeats")

        _, _, other_seed = bench(exe, w, 6, 0)
        _, _, base = bench(exe, w, 5, 0)
        if w == "fig7_barneshut":
            check(other_seed != base, w + ": --seed changes the inputs")
        else:
            check(other_seed == base, w + ": seedless pattern")

    proc = subprocess.run([exe, "--workload", "no_such", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    check(proc.returncode != 0 and "{" not in proc.stdout,
          "unknown workload fails without a result")

    proc = subprocess.run([sys.executable, run.__file__, "--workload", "all",
                           "--seed", "5", "--seconds", "0.01", "--size",
                           "tiny"], stdout=subprocess.PIPE, text=True)
    results = [json.loads(l) for l in proc.stdout.splitlines()
               if l.startswith("{")]
    check(proc.returncode == 0 and
          len(results) == 2 * len(spec["workloads"]) and
          all(r["correct"] for r in results),
          "--workload all runs every workload untraced and traced")

    print("selftest: %d failure(s)" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
