#!/usr/bin/env bash
# Regenerate the committed trace library (traces/*.ccsvmt): one small
# canonical capture per synthetic pattern plus matmul, all at the
# default (paper Table 2) machine shape, so any PR can replay a fixed
# stimulus across protocols without first running a workload.
#
# Capture is deterministic (byte-identical across runs), so
# regeneration only changes the files when the simulator's timing or
# the trace format changes — both of which are PR-visible events.
#
# usage: scripts/gen_traces.sh [BUILD_DIR]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
build="${1:-build}"
driver="$build/tools/ccsvm"
tool="$build/tools/ccsvm-trace"
[ -x "$driver" ] || { echo "no driver at $driver; build first" >&2; exit 1; }

mkdir -p traces

for pat in padded false hot migratory prodcons stream ptrchase readmostly conflict; do
  "$driver" --workload "synth:$pat" --iters 12 \
            --capture-out "traces/synth_$pat.ccsvmt"
done
"$driver" --workload matmul --n 8 --capture-out traces/matmul_n8.ccsvmt

for t in traces/*.ccsvmt; do
  "$tool" validate "$t"
done
