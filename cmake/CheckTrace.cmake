# Test script: the observability layer's contract at the CLI boundary.
#
#   - The same traced, sampled run done twice exports byte-identical
#     Chrome trace-event JSON and byte-identical stats JSON.
#   - The trace parses: cmake's string(JSON) always, python3's
#     json.load when an interpreter is on PATH (closer to what
#     Perfetto's importer accepts).
#   - Observers are free: the "sim" and "stats" sections of a run
#     with --trace-out, --trace-categories and --sample-interval are
#     byte-identical to the same run with all of them off.
#   - --sample-interval populates a "series" section.
#   - The per-class latency histograms (latency.{cpu,mttop}.mem with
#     p50/p90/p99) are present for matmul and two synthetic patterns.
#
# Usage: cmake -DCCSVM_DRIVER=<path> -DCCSVM_OUT_DIR=<dir>
#              -P CheckTrace.cmake

if(NOT CCSVM_DRIVER OR NOT CCSVM_OUT_DIR)
  message(FATAL_ERROR "CCSVM_DRIVER and CCSVM_OUT_DIR are required")
endif()

file(MAKE_DIRECTORY ${CCSVM_OUT_DIR})

function(run_traced trace json)
  execute_process(
    COMMAND ${CCSVM_DRIVER} --workload matmul --n 8
            --sample-interval 500000 --trace-out ${trace}
            --trace-categories coh,noc,vm,kernel --json ${json}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "traced run exited ${rc}\nstdout: ${out}\n"
            "stderr: ${err}")
  endif()
endfunction()

set(tr1 ${CCSVM_OUT_DIR}/trace_r1.json)
set(tr2 ${CCSVM_OUT_DIR}/trace_r2.json)
set(j1 ${CCSVM_OUT_DIR}/trace_stats_r1.json)
set(j2 ${CCSVM_OUT_DIR}/trace_stats_r2.json)
run_traced(${tr1} ${j1})
run_traced(${tr2} ${j2})

# --- the same run twice: byte-identical trace and stats -------------
file(READ ${tr1} trace1)
file(READ ${tr2} trace2)
if(NOT trace1 STREQUAL trace2)
  message(FATAL_ERROR "trace JSON differs between two identical runs")
endif()
file(READ ${j1} traced_doc)
file(READ ${j2} traced_doc2)
if(NOT traced_doc STREQUAL traced_doc2)
  message(FATAL_ERROR "stats JSON differs between two identical "
          "traced runs:\n--- first:\n${traced_doc}\n"
          "--- second:\n${traced_doc2}")
endif()

# --- the trace parses and is non-trivial ----------------------------
string(JSON n_events LENGTH "${trace1}" traceEvents)
if(n_events LESS_EQUAL 1)
  message(FATAL_ERROR "trace has no events: ${n_events}")
endif()
string(JSON recorded GET "${trace1}" otherData recorded)
if(recorded LESS_EQUAL 0)
  message(FATAL_ERROR "trace records no events: ${recorded}")
endif()

find_program(CCSVM_PYTHON3 python3)
if(CCSVM_PYTHON3)
  execute_process(
    COMMAND ${CCSVM_PYTHON3} -c
            "import json,sys; d=json.load(open(sys.argv[1])); \
assert d['traceEvents'], 'empty traceEvents'"
            ${tr1}
    RESULT_VARIABLE rc
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "python3 json.load rejected the trace: "
            "${err}")
  endif()
else()
  message(STATUS "python3 not found; cmake-only trace parse")
endif()

# --- stats unperturbed by the observers -----------------------------
# Same point with tracing and sampling off: the simulation summary
# and the full stats registry must match byte for byte.
set(joff ${CCSVM_OUT_DIR}/trace_stats_off.json)
execute_process(
  COMMAND ${CCSVM_DRIVER} --workload matmul --n 8 --json ${joff}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "unobserved run exited ${rc}\nstderr: ${err}")
endif()
file(READ ${joff} untraced_doc)
foreach(section sim stats)
  string(JSON on GET "${traced_doc}" ${section})
  string(JSON off GET "${untraced_doc}" ${section})
  if(NOT on STREQUAL off)
    message(FATAL_ERROR "the ${section} section changes when tracing "
            "and sampling are on:\n--- on:\n${on}\n--- off:\n${off}")
  endif()
endforeach()

# --- the time series ------------------------------------------------
string(JSON interval GET "${traced_doc}" series interval)
if(NOT interval EQUAL 500000)
  message(FATAL_ERROR "series.interval not echoed: ${interval}")
endif()
string(JSON n_samples LENGTH "${traced_doc}" series samples)
if(n_samples LESS_EQUAL 0)
  message(FATAL_ERROR "series has no samples")
endif()
string(JSON s0_t GET "${traced_doc}" series samples 0 t)
string(JSON s0_dram GET "${traced_doc}" series samples 0 dram)
if(s0_t LESS_EQUAL 0)
  message(FATAL_ERROR "first sample has no timestamp: ${s0_t}")
endif()

# --- latency histograms across workload classes ---------------------
foreach(wl matmul synth:false synth:stream)
  string(REPLACE ":" "_" tag "${wl}")
  set(json ${CCSVM_OUT_DIR}/trace_histo_${tag}.json)
  execute_process(
    COMMAND ${CCSVM_DRIVER} --workload ${wl} --n 8 --iters 16
            --json ${json}
    RESULT_VARIABLE rc
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${wl} exited ${rc}\nstderr: ${err}")
  endif()
  file(READ ${json} doc)
  foreach(cls cpu mttop)
    string(JSON cnt GET "${doc}" stats histograms
           latency.${cls}.mem count)
    string(JSON p50 GET "${doc}" stats histograms
           latency.${cls}.mem p50)
    string(JSON p90 GET "${doc}" stats histograms
           latency.${cls}.mem p90)
    string(JSON p99 GET "${doc}" stats histograms
           latency.${cls}.mem p99)
  endforeach()
  # Every workload in this list drives at least one of the two core
  # classes through its L1s.
  string(JSON cpu_cnt GET "${doc}" stats histograms
         latency.cpu.mem count)
  string(JSON mttop_cnt GET "${doc}" stats histograms
         latency.mttop.mem count)
  if(cpu_cnt EQUAL 0 AND mttop_cnt EQUAL 0)
    message(FATAL_ERROR "${wl}: no memory latency recorded")
  endif()
endforeach()

message(STATUS "observability ok: trace byte-identical across "
               "runs (${n_events} rows, "
               "${recorded} recorded), stats unperturbed, "
               "${n_samples} series samples, histograms present")
