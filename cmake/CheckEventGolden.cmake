# Test script: the event-order golden gate.
#
# Runs small versions of the three benchmark workloads (barneshut,
# synth:stream, synth:false) through the driver, plus three rows that
# cover the cores' translate-and-issue path (MTTOP page faults relayed
# through the MIFD, MESI-override regions, bypass regions), and
# compares each run's simulated ticks, executed event count and the
# SHA-256 of its "stats" JSON section against a committed golden file.
# Any change to event order, event count or a single statistic shows
# up here.
#
# Usage: cmake -DCCSVM_DRIVER=<path> -DCCSVM_OUT_DIR=<dir>
#              [-DCCSVM_GOLDEN=<file>] [-DUPDATE=ON]
#              -P CheckEventGolden.cmake
#
# CCSVM_GOLDEN defaults to tests/event_golden.txt in the source tree.
# With -DUPDATE=ON the script rewrites the golden file from the
# current driver instead of checking it; explain the diff in
# CHANGES.md when committing a re-baseline.

if(NOT CCSVM_DRIVER OR NOT CCSVM_OUT_DIR)
  message(FATAL_ERROR "CCSVM_DRIVER and CCSVM_OUT_DIR are required")
endif()
if(NOT CCSVM_GOLDEN)
  set(CCSVM_GOLDEN ${CMAKE_CURRENT_LIST_DIR}/../tests/event_golden.txt)
endif()

file(MAKE_DIRECTORY ${CCSVM_OUT_DIR})

# name | driver flags (a ;-list)
set(names fig7_barneshut stream_dram false_share spmm_faults
    matmul_regions stream_bypass)
set(flags_fig7_barneshut --workload barneshut --bodies 64 --steps 2
    --seed 1)
set(flags_stream_dram --workload synth:stream --synth-threads 16
    --footprint-kb 1024 --iters 1)
set(flags_false_share --workload synth:false --synth-threads 128
    --sharing 8 --iters 64)
# 16 MTTOP page faults relayed to the kernel through the MIFD.
set(flags_spmm_faults --workload spmm --n 32)
# matmul's A/B hinted read-mostly: MESI-override regions.
set(flags_matmul_regions --workload matmul --n 16 --region-hints)
# synth:stream's buffer hinted bypass: uncached ops at the L1.
set(flags_stream_bypass --workload synth:stream --synth-threads 16
    --footprint-kb 256 --iters 1 --region-hints)

# One line per workload: "<name> ticks=<n> events=<n> stats_sha256=<h>".
set(lines "")
foreach(name IN LISTS names)
  set(json ${CCSVM_OUT_DIR}/event_golden_${name}.json)
  execute_process(
    COMMAND ${CCSVM_DRIVER} ${flags_${name}} --json ${json}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name}: driver exited ${rc}\n"
                        "stdout: ${out}\nstderr: ${err}")
  endif()
  file(READ ${json} doc)
  string(JSON ticks GET "${doc}" sim ticks)
  string(JSON events GET "${doc}" sim events)
  # Hash the stats section as the driver wrote it (it runs to the end
  # of the document), not a re-serialization.
  string(FIND "${doc}" "\"stats\": " at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${json} has no stats section")
  endif()
  string(SUBSTRING "${doc}" ${at} -1 stats)
  string(SHA256 sha "${stats}")
  string(APPEND lines
         "${name} ticks=${ticks} events=${events} stats_sha256=${sha}\n")
endforeach()

if(UPDATE)
  file(WRITE ${CCSVM_GOLDEN} "${lines}")
  message(STATUS "event golden rewritten: ${CCSVM_GOLDEN}\n${lines}")
  return()
endif()

if(NOT EXISTS ${CCSVM_GOLDEN})
  message(FATAL_ERROR "golden file ${CCSVM_GOLDEN} is missing; "
                      "create it with -DUPDATE=ON")
endif()
file(READ ${CCSVM_GOLDEN} golden)
if(NOT lines STREQUAL golden)
  message(FATAL_ERROR
          "event order changed.\nexpected (${CCSVM_GOLDEN}):\n"
          "${golden}\nactual:\n${lines}\n"
          "If the change is intended, rerun this script with "
          "-DUPDATE=ON and explain the diff in CHANGES.md.")
endif()
message(STATUS "event golden ok:\n${lines}")
