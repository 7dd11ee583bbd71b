#!/usr/bin/env bash
# Sweep every figure benchmark binary and collect its JSON output,
# in the spirit of gem5-coherence-benchmark's run_coherence.sh.
#
# The benches run concurrently, bounded by --jobs (default: nproc);
# each binary additionally runs its own simulation sweep on up to
# --jobs workers (exported as CCSVM_JOBS, see bench_common.hh). A
# bench exits non-zero when a simulation fails validation, which
# fails this script. Per-bench wall-clock and total simulated ticks
# are collected into BENCH_figures.json, and a wall-clock summary
# table is printed at the end.
#
# Usage: bench/run_figures.sh [build-dir] [out-dir] [--jobs N]
#   CCSVM_BENCH_LARGE=1   extend sweeps toward the paper's sizes
#   --jobs 1              sequential (the historical behavior)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="build"
OUT_DIR="figures-json"
JOBS="$(nproc 2>/dev/null || echo 1)"

positional=0
while [[ $# -gt 0 ]]; do
    case "$1" in
        --jobs)
            JOBS="$2"
            shift 2
            ;;
        *)
            positional=$((positional + 1))
            if [[ $positional -eq 1 ]]; then BUILD_DIR="$1"; else OUT_DIR="$1"; fi
            shift
            ;;
    esac
done
if ! [[ $JOBS =~ ^[0-9]+$ ]] || [[ $JOBS -lt 1 ]]; then
    echo "run_figures: --jobs wants a positive integer, got '$JOBS'" >&2
    exit 2
fi

FIGURES=(fig5_matmul fig6_apsp fig7_barneshut fig8_spmm fig9_dram
         abl_launch abl_tlb abl_atomics abl_protocol abl_synth
         abl_hetero abl_region abl_bank abl_trace abl_replay)

mkdir -p "$OUT_DIR"
for fig in "${FIGURES[@]}"; do
    bin="$BUILD_DIR/bench/$fig"
    if [[ ! -x $bin ]]; then
        echo "run_figures: missing $bin (build with CCSVM_BUILD_BENCH=ON)" >&2
        exit 1
    fi
done

now_ms() {
    # date +%s%N is GNU; fall back to second resolution elsewhere.
    local ns
    ns="$(date +%s%N)"
    if [[ $ns == *N ]]; then
        echo "$(($(date +%s) * 1000))"
    else
        echo "$((ns / 1000000))"
    fi
}

# Run one bench, logging its stdout/stderr and wall-clock (ms).
run_one() {
    local fig="$1"
    local bin="$BUILD_DIR/bench/$fig"
    local t0 t1
    t0="$(now_ms)"
    if ! CCSVM_BENCH_JSON="$OUT_DIR/BENCH_$fig.json" \
         CCSVM_JOBS="$JOBS" \
         "$bin" > "$OUT_DIR/$fig.log" 2>&1; then
        echo "FAILED" > "$OUT_DIR/$fig.wall_ms"
        return 1
    fi
    t1="$(now_ms)"
    echo "$((t1 - t0))" > "$OUT_DIR/$fig.wall_ms"
}

total_t0="$(now_ms)"

# Launch up to $JOBS benches at a time; each also fans out its own
# simulation sweep (the inner CCSVM_JOBS), so the worker pool is
# shared with the kernel scheduler rather than partitioned exactly.
pids=()
running=0
failed=0
for fig in "${FIGURES[@]}"; do
    echo "=== $fig ==="
    run_one "$fig" &
    pids+=("$!")
    running=$((running + 1))
    if [[ $running -ge $JOBS ]]; then
        if ! wait -n; then failed=1; fi
        running=$((running - 1))
    fi
done
for pid in "${pids[@]}"; do
    if ! wait "$pid" 2>/dev/null; then failed=1; fi
done

# table2_config is a configuration report, not a sweep; a failed
# derived-quantity check exits non-zero and stops the script (set -e).
"$BUILD_DIR/bench/table2_config" > "$OUT_DIR/table2_config.txt"

total_t1="$(now_ms)"
total_wall=$((total_t1 - total_t0))

if [[ $failed -ne 0 ]]; then
    echo "run_figures: a bench failed; logs in $OUT_DIR/*.log" >&2
    exit 1
fi

# Surface each bench's own output (in deterministic list order, not
# completion order), then assemble the run summary.
for fig in "${FIGURES[@]}"; do
    cat "$OUT_DIR/$fig.log"
done

# BENCH_figures.json: per-bench wall-clock + total simulated ticks
# (from the bench's own JSON) plus the whole-run wall-clock and the
# serial/parallel speedup estimate.
summary="$OUT_DIR/BENCH_figures.json"
sum_wall=0
{
    echo "{"
    echo "  \"jobs\": $JOBS,"
    echo "  \"benches\": ["
    first=1
    for fig in "${FIGURES[@]}"; do
        wall="$(cat "$OUT_DIR/$fig.wall_ms")"
        sum_wall=$((sum_wall + wall))
        ticks="$(sed -n 's/^ *"total_sim_ticks": \([0-9]*\).*/\1/p' \
                 "$OUT_DIR/BENCH_$fig.json" | head -1)"
        [[ -n $ticks ]] || ticks=0
        [[ $first -eq 1 ]] || echo ","
        first=0
        printf '    {"name": "%s", "wall_ms": %s, "total_sim_ticks": %s}' \
               "$fig" "$wall" "$ticks"
    done
    echo
    echo "  ],"
    echo "  \"sum_bench_wall_ms\": $sum_wall,"
    echo "  \"total_wall_ms\": $total_wall,"
    # Sum of per-bench wall over the elapsed wall: >= 2 on a 4-core
    # runner demonstrates the parallel sweep paying off end to end.
    echo "  \"speedup_vs_serial\": $(awk -v s="$sum_wall" -v t="$total_wall" \
        'BEGIN { printf "%.2f", (t > 0) ? s / t : 0 }')"
    echo "}"
} > "$summary"

echo
echo "=== wall-clock summary (jobs=$JOBS) ==="
printf '%-16s %10s %16s\n' bench wall_ms total_sim_ticks
for fig in "${FIGURES[@]}"; do
    wall="$(cat "$OUT_DIR/$fig.wall_ms")"
    ticks="$(sed -n 's/^ *"total_sim_ticks": \([0-9]*\).*/\1/p' \
             "$OUT_DIR/BENCH_$fig.json" | head -1)"
    printf '%-16s %10s %16s\n' "$fig" "$wall" "${ticks:-0}"
done
printf '%-16s %10s\n' "TOTAL (wall)" "$total_wall"
awk -v s="$sum_wall" -v t="$total_wall" \
    'BEGIN { printf "speedup vs serial: %.2fx\n", (t > 0) ? s / t : 0 }'

echo
echo "collected outputs in $OUT_DIR:"
ls -l "$OUT_DIR"
