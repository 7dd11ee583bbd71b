# Test script: the paper's qualitative findings, checked on the
# figure benches' own JSON at their default (small) sizes.
#
#   - Fig. 5 (matmul) and Fig. 6 (APSP): CCSVM/xthreads is faster than
#     the AMD CPU core (ccsvm_rel < 1) at every N >= 16, and faster
#     than the APU even without OpenCL init/compilation
#     (ccsvm_rel < apu_noinit_rel) at every N.
#   - Fig. 9 (matmul DRAM transactions): APU > CCSVM > CPU core at
#     every N.
#
# A bench that exits non-zero (a simulation failed validation) fails
# the check too.
#
# Usage: cmake -DCCSVM_FIG5=<path> -DCCSVM_FIG6=<path>
#              -DCCSVM_FIG9=<path> -DCCSVM_OUT_DIR=<dir>
#              -P CheckFigureClaims.cmake

if(NOT CCSVM_FIG5 OR NOT CCSVM_FIG6 OR NOT CCSVM_FIG9
   OR NOT CCSVM_OUT_DIR)
  message(FATAL_ERROR
          "CCSVM_FIG5, CCSVM_FIG6, CCSVM_FIG9 and CCSVM_OUT_DIR "
          "are required")
endif()

file(MAKE_DIRECTORY ${CCSVM_OUT_DIR})

# Run one bench with CCSVM_BENCH_JSON set; leave its JSON text in
# <name>_doc and its row count in <name>_rows.
function(run_figure name bin)
  set(json ${CCSVM_OUT_DIR}/claims_${name}.json)
  file(REMOVE ${json})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env CCSVM_BENCH_JSON=${json} ${bin}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name}: exited ${rc}\n"
                        "stdout: ${out}\nstderr: ${err}")
  endif()
  file(READ ${json} doc)
  string(JSON rows LENGTH "${doc}" rows)
  if(rows EQUAL 0)
    message(FATAL_ERROR "${name}: ${json} has no rows")
  endif()
  set(${name}_doc "${doc}" PARENT_SCOPE)
  set(${name}_rows ${rows} PARENT_SCOPE)
endfunction()

# Fail unless row @p i of @p name has series @p lo below series @p hi.
function(expect_less name i lo hi)
  string(JSON x GET "${${name}_doc}" rows ${i} x)
  string(JSON a GET "${${name}_doc}" rows ${i} ${lo})
  string(JSON b GET "${${name}_doc}" rows ${i} ${hi})
  if(NOT a LESS b)
    message(FATAL_ERROR
            "${name}: at x=${x} expected ${lo} (${a}) < ${hi} (${b})")
  endif()
endfunction()

# --- Fig. 5 and Fig. 6: CCSVM beats the CPU core and the APU ---------
run_figure(fig5 ${CCSVM_FIG5})
run_figure(fig6 ${CCSVM_FIG6})
foreach(name fig5 fig6)
  math(EXPR last "${${name}_rows} - 1")
  foreach(i RANGE ${last})
    string(JSON x GET "${${name}_doc}" rows ${i} x)
    if(x GREATER_EQUAL 16)
      expect_less(${name} ${i} ccsvm_rel cpu_rel)
    endif()
    expect_less(${name} ${i} ccsvm_rel apu_noinit_rel)
  endforeach()
endforeach()

# --- Fig. 9: APU DRAM > CCSVM DRAM > CPU DRAM -------------------------
run_figure(fig9 ${CCSVM_FIG9})
math(EXPR last "${fig9_rows} - 1")
foreach(i RANGE ${last})
  expect_less(fig9 ${i} ccsvm_dram apu_dram)
  expect_less(fig9 ${i} cpu_dram ccsvm_dram)
endforeach()

message(STATUS "figure claims hold: fig5 ${fig5_rows} rows, "
               "fig6 ${fig6_rows} rows, fig9 ${fig9_rows} rows")
