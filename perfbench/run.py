#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fig7_barneshut --seed 1 \\
        --seconds 30 --trace 0

`--workload all` runs every workload, untraced then traced, and exits
non-zero if any run fails.

The first call configures and builds perfbench/ (the simulator library
from src/ plus one executable) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later calls rebuild only what changed. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON
result. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build():
    """Configure and build the benchmark; return the executable's path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.abspath(out))
    for cmd in (["cmake", "-S", HERE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "--target", "ccsvm_perfbench",
                 "-j", jobs]):
        # Build logs go to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "ccsvm_perfbench")


def bench(exe, argv):
    # Traced runs write their spans beside the build.
    spans = os.path.join(build_dir(), "spans.json")
    sys.stdout.flush()
    return subprocess.run([exe] + argv + ["--spans-out", spans]).returncode


def main(argv):
    exe = build()
    opts = argparse.ArgumentParser(add_help=False)
    opts.add_argument("--workload")
    opts.add_argument("--trace")
    known, rest = opts.parse_known_args(argv)
    if known.workload != "all":
        return bench(exe, argv)
    with open("BENCHMARK.json") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    codes = [bench(exe, ["--workload", w, "--trace", t] + rest)
             for w in names for t in ("0", "1")]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
