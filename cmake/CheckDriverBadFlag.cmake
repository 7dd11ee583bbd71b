# Test script: the ccsvm driver must reject unknown flags and bad
# flag values fast, with a clear error plus a usage hint on stderr and
# exit code 2 (not silently ignore them and simulate anyway), and no
# command line may crash or hang the host.
#
# Usage: cmake -DCCSVM_DRIVER=<path> -P CheckDriverBadFlag.cmake

if(NOT CCSVM_DRIVER)
  message(FATAL_ERROR "CCSVM_DRIVER is required")
endif()
# Lists keep empty elements: the fuzz feeds an empty value.
cmake_policy(SET CMP0007 NEW)

# drive(ARGS...): run the driver on ARGS with a 10 s timeout and set
# rc, out and err in the caller. A hang or a signal (exit >= 128)
# fails the check with the argv it ran. The last argument is passed
# quoted, so an empty fuzz value still reaches the driver.
function(drive)
  math(EXPR n "${ARGC} - 1")
  list(SUBLIST ARGV 0 ${n} head)
  execute_process(
    COMMAND ${CCSVM_DRIVER} ${head} "${ARGV${n}}"
    TIMEOUT 10
    RESULT_VARIABLE r
    OUTPUT_VARIABLE o
    ERROR_VARIABLE e)
  if(NOT r MATCHES "^[0-9]+$" OR r GREATER 127)
    string(REPLACE ";" " " shown "${head}")
    message(FATAL_ERROR "ccsvm ${shown} '${ARGV${n}}' ended with "
                        "'${r}' (a hang or a signal)\n"
                        "stdout: ${o}\nstderr: ${e}")
  endif()
  set(rc "${r}" PARENT_SCOPE)
  set(out "${o}" PARENT_SCOPE)
  set(err "${e}" PARENT_SCOPE)
endfunction()

# Unknown option: error + usage hint, exit 2.
drive(--definitely-not-a-flag)
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
  drive(${flag} mosi)
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
drive(--slice-hash crc32)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "bad --slice-hash exited ${rc}, want 2\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "--slice-hash" OR NOT err MATCHES "mod, xorfold, skew")
  message(FATAL_ERROR "bad --slice-hash error does not name the flag "
                      "and the accepted hashes:\n${err}")
endif()

drive(--l2-replace plru)
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
  drive(${geom} --workload synth:false --iters 1)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "bad geometry '${geom}' exited ${rc}, "
                        "want 2\nstdout: ${out}\nstderr: ${err}")
  endif()
endforeach()
drive(--l2-bank-kb 3 --workload synth:false --iters 1)
if(NOT err MATCHES "power of two")
  message(FATAL_ERROR "non-power-of-two set count diagnostic does "
                      "not say so:\n${err}")
endif()

# The --list flags must enumerate their tables, one name per line.
drive(--list-protocols)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--list-protocols exited ${rc}\n"
                      "stderr: ${err}")
endif()
if(NOT out MATCHES "msi\nmesi\nmoesi")
  message(FATAL_ERROR "--list-protocols output unexpected:\n${out}")
endif()

drive(--list-slice-hashes)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--list-slice-hashes exited ${rc}\n"
                      "stderr: ${err}")
endif()
if(NOT out MATCHES "mod\nxorfold\nskew")
  message(FATAL_ERROR "--list-slice-hashes output unexpected:\n"
                      "${out}")
endif()

drive(--list-replacers)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--list-replacers exited ${rc}\n"
                      "stderr: ${err}")
endif()
if(NOT out MATCHES "lru\nfifo\nrand\nregion")
  message(FATAL_ERROR "--list-replacers output unexpected:\n${out}")
endif()

# --sim-threads is not a flag: one machine runs on one event queue.
drive(--sim-threads 4)
if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown option '--sim-threads'")
  message(FATAL_ERROR "--sim-threads must be an unknown option "
                      "(exit 2), got ${rc}\nstderr: ${err}")
endif()

# 65 L1 caches (4 CPU + 61 MTTOP) overflow the directory's 64-bit
# sharer mask: exit 2 naming the flag, before any simulation.
drive(--mttop-cores 61)
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
  drive(--workload matmul ${bad})
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
drive(--workload)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "missing argument exited ${rc}, want 2\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()

# Single flag values that used to crash or hang the host (a
# length_error or bad_alloc abort, a panic, a segfault, a forever
# dispatch wait) or were accepted silently: each exits 2 naming the
# flag, through its range in the flag table.
foreach(bad "--n;4294967295"
            "--workload;barneshut;--bodies;4294967295"
            "--mttop-contexts;4294967295" "--mttop-contexts;1"
            "--mttop-contexts;7" "--cpu-cores;4294967295"
            "--cpu-cores;2147483648"
            "--workload;spmm;--density;-1" "--workload;spmm;--density;nan"
            "--workload;spmm;--density;2"
            "--workload;synth:stream;--footprint-kb;4294967295"
            "--workload;synth:stream;--stride;4294967295"
            "--workload;synth:conflict;--sharing;4294967295")
  list(GET bad -2 flag)
  drive(--workload matmul --n 4 ${bad})
  if(NOT rc EQUAL 2 OR NOT err MATCHES "${flag} needs a")
    message(FATAL_ERROR "'${bad}' exited ${rc}, want 2 naming "
                        "${flag}\nstdout: ${out}\nstderr: ${err}")
  endif()
endforeach()

# Flag combinations inside every range can still overflow the 1 GiB
# guest heap: exit 2 naming the workload, before any result. These
# fail at the first reservation, before touching host memory.
foreach(bad "synth:stream;--footprint-kb;1048576"
            "synth:stream;--stride;1073741824"
            "synth:conflict;--sharing;16777216")
  list(GET bad 0 workload)
  drive(--workload ${bad})
  if(NOT rc EQUAL 2 OR
     NOT err MATCHES "workload ${workload}: guest heap exhausted" OR
     out MATCHES "workload=")
    message(FATAL_ERROR "'${bad}' exited ${rc}, want 2 naming the "
                        "workload\nstdout: ${out}\nstderr: ${err}")
  endif()
endforeach()

# A capture file that cannot be opened is a CLI error, not an abort.
drive(--workload synth:padded --iters 1
      --capture-out /nonexistent-ccsvm-dir/capture.ccsvmt)
if(NOT rc EQUAL 2 OR NOT err MATCHES "cannot open capture output")
  message(FATAL_ERROR "unopenable --capture-out exited ${rc}, want 2"
                      "\nstdout: ${out}\nstderr: ${err}")
endif()

# Argv fuzz over the flag table, read from --help: a flag line
# "  --name META ..." is followed by "META in [lo, hi]" for a numeric
# row or "META in a | b | ..." for a names row. File-writing rows have
# neither, so they are never fuzzed.
drive(--help)
string(REPLACE ";" "," help "${out}")
string(REPLACE "\n" ";" help_lines "${help}")
set(numeric_rows "")
set(names_rows "")
foreach(line IN LISTS help_lines)
  if(line MATCHES "^  (--[a-z0-9-]+)")
    set(row "${CMAKE_MATCH_1}")
  elseif(line MATCHES "^ +[A-Z]+ in \\[([0-9]+), ([0-9]+)\\]$")
    list(APPEND numeric_rows "${row}:${CMAKE_MATCH_1}:${CMAKE_MATCH_2}")
  elseif(line MATCHES "^ +[A-Z]+ in [a-z]")
    list(APPEND names_rows "${row}")
  endif()
endforeach()
list(LENGTH numeric_rows n_numeric)
list(LENGTH names_rows n_names)
if(n_numeric LESS 20 OR n_names LESS 5)
  message(FATAL_ERROR "--help shows ${n_numeric} numeric and "
                      "${n_names} names rows; parse broke?\n${out}")
endif()

# The workload-parameter flags each workload consumes, from the
# registry: every one must be a --help flag, and a row's minimum runs
# on the first workload that consumes it.
drive(--list-workloads)
string(REPLACE "\n" ";" wl_lines "${out}")
foreach(line IN LISTS wl_lines)
  if(line MATCHES "^  ([^ ]+) .*\\[(.*)\\]$")
    set(workload "${CMAKE_MATCH_1}")
    string(REPLACE " " ";" wl_flags "${CMAKE_MATCH_2}")
    foreach(flag IN LISTS wl_flags)
      if(NOT help MATCHES "\n  ${flag} ")
        message(FATAL_ERROR "--list-workloads says ${workload} "
                            "consumes ${flag}, which --help lacks")
      endif()
      if(NOT DEFINED consumer${flag})
        set(consumer${flag} "${workload}")
      endif()
    endforeach()
  endif()
endforeach()

set(fuzz_values "" "-1" "+1" " 1" "abc" "1x" "18446744073709551616"
                "nan")
set(tiny --workload synth:padded --iters 1)
foreach(flag IN LISTS names_rows)
  foreach(value IN LISTS fuzz_values)
    drive(${tiny} ${flag} "${value}")
    if(NOT rc EQUAL 2 OR NOT err MATCHES "${flag}" OR
       out MATCHES "workload=")
      message(FATAL_ERROR "${flag} '${value}' exited ${rc}, want 2 "
                          "naming the flag\nstdout: ${out}\n"
                          "stderr: ${err}")
    endif()
  endforeach()
endforeach()

foreach(entry IN LISTS numeric_rows)
  string(REPLACE ":" ";" entry "${entry}")
  list(GET entry 0 flag)
  list(GET entry 1 lo)
  list(GET entry 2 hi)
  set(values "${fuzz_values}")
  if(NOT hi STREQUAL "18446744073709551615")
    math(EXPR above "${hi} + 1")
    list(APPEND values "${above}")
  endif()
  foreach(value IN LISTS values)
    drive(${tiny} ${flag} "${value}")
    if(NOT rc EQUAL 2 OR NOT err MATCHES "${flag} needs a" OR
       out MATCHES "workload=")
      message(FATAL_ERROR "${flag} '${value}' exited ${rc}, want 2 "
                          "naming the flag\nstdout: ${out}\n"
                          "stderr: ${err}")
    endif()
  endforeach()

  # The row's minimum must run: a tiny run of a workload that
  # consumes it (any workload, for a machine flag).
  set(workload "synth:padded")
  if(DEFINED consumer${flag})
    set(workload "${consumer${flag}}")
  endif()
  set(base --iters 2)
  if(workload MATCHES "^(matmul|apsp|spmm)$")
    set(base --n 8)
  elseif(workload STREQUAL "barneshut")
    set(base --bodies 8 --steps 1)
  endif()
  drive(--workload ${workload} ${base} ${flag} ${lo})
  if(NOT rc EQUAL 0 AND NOT rc EQUAL 1)
    message(FATAL_ERROR "${flag} ${lo} (the minimum) on ${workload} "
                        "exited ${rc}, want 0 or 1\nstdout: ${out}\n"
                        "stderr: ${err}")
  endif()
endforeach()

message(STATUS "driver flag validation ok (${n_numeric} numeric "
               "and ${n_names} names rows fuzzed)")
