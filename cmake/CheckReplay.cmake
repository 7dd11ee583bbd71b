# Test script: the trace capture + replay contract at the CLI
# boundary (docs/TRACE_FORMAT.md):
#
#   - capture a synth:false run and a matmul run with --capture-out,
#     replay each with --workload replay --trace, and require the
#     "sim" + "stats" JSON sections byte-identical to the capture
#     run's (the workload/params echo legitimately differs)
#   - the same capture run done twice must write a byte-identical
#     capture file and stats JSON, and its "sim" + "stats" sections
#     must equal those of the same run without --capture-out
#   - ccsvm-trace inspect/validate/stats must accept the fresh trace
#   - a shape-mismatched replay (--cpu-cores 2) must exit 2 with a
#     "machine shape" diagnostic; --workload replay without --trace
#     must exit 2
#   - every committed trace under CCSVM_TRACES_DIR (optional) must
#     pass ccsvm-trace validate and replay cleanly at default shape.
#
# Usage: cmake -DCCSVM_DRIVER=<path> -DCCSVM_TRACE_TOOL=<path>
#              -DCCSVM_OUT_DIR=<dir> [-DCCSVM_TRACES_DIR=<dir>]
#              -P CheckReplay.cmake

if(NOT CCSVM_DRIVER OR NOT CCSVM_TRACE_TOOL OR NOT CCSVM_OUT_DIR)
  message(FATAL_ERROR
          "CCSVM_DRIVER, CCSVM_TRACE_TOOL and CCSVM_OUT_DIR are "
          "required")
endif()

file(MAKE_DIRECTORY ${CCSVM_OUT_DIR})

function(run rc_var out_var err_var)
  execute_process(
    COMMAND ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  set(${rc_var} "${rc}" PARENT_SCOPE)
  set(${out_var} "${out}" PARENT_SCOPE)
  set(${err_var} "${err}" PARENT_SCOPE)
endfunction()

function(run_ok)
  run(rc out err ${ARGN})
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command exited ${rc}: ${ARGN}\n"
            "stdout: ${out}\nstderr: ${err}")
  endif()
endfunction()

# The simulation result: everything in the JSON from the "sim"
# summary on (summary + full stats registry). The leading
# workload/params echo is the one part that legitimately differs
# between a capture run and its replay.
function(sim_and_stats var json)
  file(READ ${json} doc)
  string(FIND "${doc}" "\"sim\": {" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${json} has no sim section:\n${doc}")
  endif()
  string(SUBSTRING "${doc}" ${at} -1 tail)
  set(${var} "${tail}" PARENT_SCOPE)
endfunction()

# --- capture -> replay, per workload --------------------------------

function(check_workload tag)
  set(wl_flags ${ARGN})
  set(trace ${CCSVM_OUT_DIR}/replay_${tag}.ccsvmt)
  set(cap_json ${CCSVM_OUT_DIR}/replay_${tag}_cap.json)
  run_ok(${CCSVM_DRIVER} ${wl_flags} --capture-out ${trace}
         --json ${cap_json})

  set(rep_json ${CCSVM_OUT_DIR}/replay_${tag}_rep.json)
  run_ok(${CCSVM_DRIVER} --workload replay --trace ${trace}
         --json ${rep_json})
  sim_and_stats(cap_doc ${cap_json})
  sim_and_stats(rep_doc ${rep_json})
  if(NOT cap_doc STREQUAL rep_doc)
    message(FATAL_ERROR "${tag}: replay diverged from the capture "
            "run:\n--- capture:\n${cap_doc}\n--- replay:\n${rep_doc}")
  endif()

  # The trace file itself is part of the determinism contract: the
  # same capture run done twice writes the same bytes.
  set(trace2 ${CCSVM_OUT_DIR}/replay_${tag}_again.ccsvmt)
  set(cap2_json ${CCSVM_OUT_DIR}/replay_${tag}_cap_again.json)
  run_ok(${CCSVM_DRIVER} ${wl_flags} --capture-out ${trace2}
         --json ${cap2_json})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${trace} ${trace2}
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR "${tag}: capture file differs between two "
            "identical runs")
  endif()
  file(READ ${cap_json} cap_full)
  file(READ ${cap2_json} cap2_full)
  if(NOT cap_full STREQUAL cap2_full)
    message(FATAL_ERROR "${tag}: stats JSON differs between two "
            "identical capture runs")
  endif()

  # Capture is a pure observer.
  set(plain_json ${CCSVM_OUT_DIR}/replay_${tag}_plain.json)
  run_ok(${CCSVM_DRIVER} ${wl_flags} --json ${plain_json})
  sim_and_stats(plain_doc ${plain_json})
  if(NOT cap_doc STREQUAL plain_doc)
    message(FATAL_ERROR "${tag}: --capture-out changed the run:\n"
            "--- captured:\n${cap_doc}\n--- plain:\n${plain_doc}")
  endif()

  # The inspection tool must accept what the capture path wrote.
  run_ok(${CCSVM_TRACE_TOOL} validate ${trace})
  run_ok(${CCSVM_TRACE_TOOL} inspect ${trace})
  run(rc out err ${CCSVM_TRACE_TOOL} stats ${trace})
  if(NOT rc EQUAL 0 OR NOT out MATCHES "by kind:")
    message(FATAL_ERROR "${tag}: ccsvm-trace stats failed (${rc}):\n"
            "${out}\n${err}")
  endif()
  set(fresh_trace ${trace} PARENT_SCOPE)
endfunction()

check_workload(synth_false --workload synth:false --iters 12)
check_workload(matmul --workload matmul --n 8)

# --- CLI error paths ------------------------------------------------

run(rc out err ${CCSVM_DRIVER} --workload replay --trace
    ${fresh_trace} --cpu-cores 2)
if(NOT rc EQUAL 2 OR NOT err MATCHES "machine shape")
  message(FATAL_ERROR "shape-mismatched replay must exit 2 with a "
          "machine-shape diagnostic, got rc=${rc}:\n${err}")
endif()

run(rc out err ${CCSVM_DRIVER} --workload replay)
if(NOT rc EQUAL 2 OR NOT err MATCHES "--trace")
  message(FATAL_ERROR "--workload replay without --trace must exit "
          "2, got rc=${rc}:\n${err}")
endif()

run(rc out err ${CCSVM_TRACE_TOOL} validate
    ${CCSVM_OUT_DIR}/replay_nonexistent.ccsvmt)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "ccsvm-trace validate on a missing file must "
          "exit 1, got ${rc}:\n${out}${err}")
endif()

# --- the committed trace library ------------------------------------

if(CCSVM_TRACES_DIR)
  file(GLOB committed ${CCSVM_TRACES_DIR}/*.ccsvmt)
  list(LENGTH committed n)
  if(n EQUAL 0)
    message(FATAL_ERROR "no .ccsvmt traces under ${CCSVM_TRACES_DIR}")
  endif()
  foreach(trace IN LISTS committed)
    run_ok(${CCSVM_TRACE_TOOL} validate ${trace})
    run_ok(${CCSVM_DRIVER} --workload replay --trace ${trace})
  endforeach()
  message(STATUS "trace library ok: ${n} committed traces validate "
                 "and replay")
endif()

message(STATUS "replay ok: capture/replay byte-identical for 2 "
               "workloads, capture deterministic and unobtrusive")
