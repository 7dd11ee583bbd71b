#!/usr/bin/env bash
# Tier-1 verify: configure, build warnings-as-errors, run every test.
# Usage: scripts/ci.sh [build-dir]
#   CCSVM_BUILD_TYPE=Release|Debug   CMake build type (default Release)
#   CCSVM_SANITIZE=1|address|thread  sanitizer lane (ASan+UBSan or TSan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

CMAKE_ARGS=(-DCCSVM_WERROR=ON
            -DCMAKE_BUILD_TYPE="${CCSVM_BUILD_TYPE:-Release}")
case "${CCSVM_SANITIZE:-0}" in
    0) ;;
    1) CMAKE_ARGS+=(-DCCSVM_SANITIZE=ON) ;;
    *) CMAKE_ARGS+=(-DCCSVM_SANITIZE="$CCSVM_SANITIZE") ;;
esac
# Compile through ccache when available (the CI workflow caches
# ~/.cache/ccache across runs; local builds just get faster rebuilds).
if command -v ccache >/dev/null 2>&1; then
    CMAKE_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"

# The protocol list comes from the driver's own enum table
# (--list-protocols), so these loops cannot drift when a protocol is
# added or renamed.
PROTOCOLS=$("$BUILD_DIR"/tools/ccsvm --list-protocols)
[[ -n $PROTOCOLS ]] || {
    echo "ci.sh: --list-protocols returned no protocols" >&2
    exit 1
}

# Per-protocol fast loop: the value-parametrized suites instantiate
# only the protocols named in CCSVM_PROTOCOLS, so each sub-second
# pass checks the non-long labels against one coherence protocol in
# isolation (and proves the CCSVM_PROTOCOLS narrowing itself works).
# The full pass below still covers all protocols together — and,
# through the pair-parametrized suites, all protocol pairs.
for proto in $PROTOCOLS; do
    echo "=== non-long suites, protocol=$proto ==="
    CCSVM_PROTOCOLS="$proto" ctest --test-dir "$BUILD_DIR" \
        --output-on-failure -j "$(nproc)" -LE long
done

# Full pass: every suite (including the long label), all protocols.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# Synth smoke loop: every synthetic coherence pattern, tiny
# iteration counts, all protocols. The pattern list comes from the
# driver's own registry (--list-workloads), so this loop cannot
# drift when a pattern is added or renamed.
SYNTH_PATTERNS=$("$BUILD_DIR"/tools/ccsvm --list-workloads |
    awk '$1 ~ /^synth:/ { print $1 }')
[[ -n $SYNTH_PATTERNS ]] || {
    echo "ci.sh: --list-workloads returned no synth patterns" >&2
    exit 1
}
for pattern in $SYNTH_PATTERNS; do
    for proto in $PROTOCOLS; do
        echo "=== synth smoke: $pattern protocol=$proto ==="
        "$BUILD_DIR"/tools/ccsvm --workload "$pattern" --iters 8 \
            --protocol "$proto"
    done
done

# Observability smoke: a traced, sampled run with stdout JSON. The
# quantitative assertions (trace byte-identity across runs, stats
# unperturbed by tracing, histogram presence) live in the
# ccsvm_trace_check ctest, which the full pass above already ran.
echo "=== observability smoke ==="
"$BUILD_DIR"/tools/ccsvm --workload matmul --n 8 \
    --trace-out "$BUILD_DIR/ci_trace.json" \
    --trace-categories coh,noc,kernel \
    --sample-interval 500000 --json - > "$BUILD_DIR/ci_stats.json"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$BUILD_DIR/ci_trace.json" "$BUILD_DIR/ci_stats.json" \
        <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
assert trace["traceEvents"], "empty trace"
stats = json.load(open(sys.argv[2]))
assert stats["series"]["samples"], "empty series"
assert "latency.cpu.mem" in stats["stats"]["histograms"]
print(f'ci.sh: trace rows={len(trace["traceEvents"])} '
      f'samples={len(stats["series"]["samples"])}')
EOF
fi

# Trace capture + replay smoke: capture a run, validate the file with
# ccsvm-trace, replay it, and check the committed trace library. The
# quantitative assertions (capture/replay stats byte-identity at 1 and
# 4 sim threads, shape-mismatch rejection) live in replay_test and the
# ccsvm_replay_check ctest, which the full pass above already ran.
echo "=== trace capture/replay smoke ==="
"$BUILD_DIR"/tools/ccsvm --workload synth:false --iters 12 \
    --capture-out "$BUILD_DIR/ci_smoke.ccsvmt"
"$BUILD_DIR"/tools/ccsvm-trace validate "$BUILD_DIR/ci_smoke.ccsvmt"
"$BUILD_DIR"/tools/ccsvm --workload replay \
    --trace "$BUILD_DIR/ci_smoke.ccsvmt"
for trace in traces/*.ccsvmt; do
    "$BUILD_DIR"/tools/ccsvm-trace validate "$trace"
done

# Bank-layer policy smoke: every home-slice hash x replacement policy
# pair must run and validate on the conflict pattern (the bank
# layer's worst case). Both lists come from the driver's own enum
# tables (--list-slice-hashes / --list-replacers), so this loop
# cannot drift when a policy is added. The quantitative assertions
# (default-point byte-identity, occupancy skew, coherent-eviction
# shielding, the replay matrix) live in the ccsvm_bank_sweep ctest,
# which the full pass above already ran.
SLICE_HASHES=$("$BUILD_DIR"/tools/ccsvm --list-slice-hashes)
REPLACERS=$("$BUILD_DIR"/tools/ccsvm --list-replacers)
[[ -n $SLICE_HASHES && -n $REPLACERS ]] || {
    echo "ci.sh: empty --list-slice-hashes or --list-replacers" >&2
    exit 1
}
for hash in $SLICE_HASHES; do
    for replacer in $REPLACERS; do
        echo "=== bank smoke: slice-hash=$hash l2-replace=$replacer ==="
        "$BUILD_DIR"/tools/ccsvm --workload synth:conflict --iters 6 \
            --slice-hash "$hash" --l2-replace "$replacer"
    done
done

# Region-based coherence smoke: the per-workload default annotations
# (synth:stream buffer -> bypass, matmul inputs -> read-mostly) and an
# explicit whole-heap region must validate under every protocol. The
# quantitative assertions (fewer fills/invalidations under bypass,
# byte-identical default runs) live in the ccsvm_region_sweep ctest,
# which the full pass above already ran — in the sanitizer lane too.
for proto in $PROTOCOLS; do
    echo "=== region smoke: protocol=$proto ==="
    "$BUILD_DIR"/tools/ccsvm --workload synth:stream --iters 4 \
        --protocol "$proto" --region-hints
    "$BUILD_DIR"/tools/ccsvm --workload matmul --n 8 \
        --protocol "$proto" --region-hints
    "$BUILD_DIR"/tools/ccsvm --workload synth:hot --iters 8 \
        --protocol "$proto" \
        --region heap:0x20000000:0x40000000:bypass
done
