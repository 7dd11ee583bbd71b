# Test script: the ccsvm driver must reject unknown flags and bad
# flag values fast, with a clear error plus a usage hint on stderr and
# exit code 2 (not silently ignore them and simulate anyway).
#
# Usage: cmake -DCCSVM_DRIVER=<path> -P CheckDriverBadFlag.cmake

if(NOT CCSVM_DRIVER)
  message(FATAL_ERROR "CCSVM_DRIVER is required")
endif()

# Unknown option: error + usage hint, exit 2.
execute_process(
  COMMAND ${CCSVM_DRIVER} --definitely-not-a-flag
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "unknown flag exited ${rc}, want 2\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "unknown option '--definitely-not-a-flag'")
  message(FATAL_ERROR "missing unknown-option error on stderr:\n"
                      "${err}")
endif()
if(NOT err MATCHES "usage:")
  message(FATAL_ERROR "missing usage hint on stderr:\n${err}")
endif()

# Bad value for a validated flag: error naming the flag AND the
# accepted values (from the same enum table --list-protocols prints),
# exit 2. All three --protocol-family flags share the path.
foreach(flag --protocol --cpu-protocol --mttop-protocol)
  execute_process(
    COMMAND ${CCSVM_DRIVER} ${flag} mosi
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "bad ${flag} exited ${rc}, want 2\n"
                        "stdout: ${out}\nstderr: ${err}")
  endif()
  if(NOT err MATCHES "${flag}")
    message(FATAL_ERROR "bad ${flag} error does not name the "
                        "flag:\n${err}")
  endif()
  if(NOT err MATCHES "msi, mesi, moesi")
    message(FATAL_ERROR "bad ${flag} error does not list the "
                        "accepted protocol names:\n${err}")
  endif()
endforeach()

# The bank-layer policy flags share the same validated-enum path.
execute_process(
  COMMAND ${CCSVM_DRIVER} --slice-hash crc32
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "bad --slice-hash exited ${rc}, want 2\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "--slice-hash" OR NOT err MATCHES "mod, xorfold, skew")
  message(FATAL_ERROR "bad --slice-hash error does not name the flag "
                      "and the accepted hashes:\n${err}")
endif()

execute_process(
  COMMAND ${CCSVM_DRIVER} --l2-replace plru
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "bad --l2-replace exited ${rc}, want 2\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "--l2-replace" OR NOT err MATCHES "lru, fifo, rand, region")
  message(FATAL_ERROR "bad --l2-replace error does not name the flag "
                      "and the accepted replacers:\n${err}")
endif()

# Geometry the cache arrays cannot index: zero or non-power-of-two
# set counts must be rejected up front with a diagnostic, exit 2.
foreach(geom "--l2-banks;0" "--l2-bank-kb;0" "--l2-bank-kb;3"
             "--cpu-l1-kb;0")
  execute_process(
    COMMAND ${CCSVM_DRIVER} ${geom} --workload synth:false --iters 1
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "bad geometry '${geom}' exited ${rc}, "
                        "want 2\nstdout: ${out}\nstderr: ${err}")
  endif()
endforeach()
execute_process(
  COMMAND ${CCSVM_DRIVER} --l2-bank-kb 3 --workload synth:false
          --iters 1
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT err MATCHES "power of two")
  message(FATAL_ERROR "non-power-of-two set count diagnostic does "
                      "not say so:\n${err}")
endif()

# The --list flags must enumerate their tables, one name per line.
execute_process(
  COMMAND ${CCSVM_DRIVER} --list-protocols
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--list-protocols exited ${rc}\n"
                      "stderr: ${err}")
endif()
if(NOT out MATCHES "msi\nmesi\nmoesi")
  message(FATAL_ERROR "--list-protocols output unexpected:\n${out}")
endif()

execute_process(
  COMMAND ${CCSVM_DRIVER} --list-slice-hashes
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--list-slice-hashes exited ${rc}\n"
                      "stderr: ${err}")
endif()
if(NOT out MATCHES "mod\nxorfold\nskew")
  message(FATAL_ERROR "--list-slice-hashes output unexpected:\n"
                      "${out}")
endif()

execute_process(
  COMMAND ${CCSVM_DRIVER} --list-replacers
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--list-replacers exited ${rc}\n"
                      "stderr: ${err}")
endif()
if(NOT out MATCHES "lru\nfifo\nrand\nregion")
  message(FATAL_ERROR "--list-replacers output unexpected:\n${out}")
endif()

# --sim-threads is not a flag: one machine runs on one event queue.
execute_process(
  COMMAND ${CCSVM_DRIVER} --sim-threads 4
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown option '--sim-threads'")
  message(FATAL_ERROR "--sim-threads must be an unknown option "
                      "(exit 2), got ${rc}\nstderr: ${err}")
endif()

# 65 L1 caches (4 CPU + 61 MTTOP) overflow the directory's 64-bit
# sharer mask: exit 2 naming the flag, before any simulation.
execute_process(
  COMMAND ${CCSVM_DRIVER} --mttop-cores 61
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "65 L1s exited ${rc}, want 2\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "--mttop-cores" OR NOT err MATCHES "64")
  message(FATAL_ERROR "65-L1 error does not name the flag and the "
                      "limit:\n${err}")
endif()

# Integer flags reject a sign, a leading blank and values past
# UINT_MAX (strtoul would wrap "-1" to 4294967295): exit 2 naming the
# flag, before any simulation.
foreach(bad "--n;-1" "--jobs;-1" "--n;+5" "--n; 5" "--jobs;4294967296"
            "--mttop-cores;-2")
  list(GET bad 0 flag)
  execute_process(
    COMMAND ${CCSVM_DRIVER} --workload matmul ${bad}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${bad}' exited ${rc}, want 2\n"
                        "stdout: ${out}\nstderr: ${err}")
  endif()
  if(NOT err MATCHES "${flag} needs a")
    message(FATAL_ERROR "'${bad}' error does not name the flag:\n"
                        "${err}")
  endif()
endforeach()

# Flag missing its argument: exit 2.
execute_process(
  COMMAND ${CCSVM_DRIVER} --workload
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "missing argument exited ${rc}, want 2\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()

message(STATUS "driver flag validation ok")
