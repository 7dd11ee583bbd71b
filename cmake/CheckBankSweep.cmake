# Test script: drive the ccsvm CLI over the L2/directory bank layer's
# two policy seams (home-slice hash, replacement policy) and assert
# the axis behaves as designed:
#
#   - a run with the defaults spelled out (--slice-hash mod
#     --l2-replace lru) is byte-identical (sim + stats JSON sections)
#     to a run with no policy flags at all, for matmul and
#     synth:false under every protocol: the seams must be true no-ops
#     at the default point, and the same default point run twice
#     must emit byte-identical JSON
#   - a power-of-two strided stream, the access class mod hashing
#     pins onto one bank, spreads under xorfold: the hottest bank's
#     peak directory occupancy strictly drops
#   - the region-aware replacer prefers evicting non-coherent lines:
#     on a region-annotated matmul squeezed into tiny banks, conflict
#     evictions of coherent lines strictly drop vs lru while the
#     pattern still conflicts (nonzero total evictions both ways)
#   - a committed conflict-pattern trace replays correctly under
#     every hash x replacer pair, with both lists harvested from the
#     driver's own --list-slice-hashes / --list-replacers so the
#     matrix cannot drift when a policy is added
#
# Usage: cmake -DCCSVM_DRIVER=<path> -DCCSVM_OUT_DIR=<dir>
#              -DCCSVM_TRACES_DIR=<dir> -P CheckBankSweep.cmake

if(NOT CCSVM_DRIVER OR NOT CCSVM_OUT_DIR OR NOT CCSVM_TRACES_DIR)
  message(FATAL_ERROR
          "CCSVM_DRIVER, CCSVM_OUT_DIR and CCSVM_TRACES_DIR are "
          "required")
endif()

file(MAKE_DIRECTORY ${CCSVM_OUT_DIR})

# Harvest the driver's own enum tables so the sweep tracks additions.
function(list_from_driver flag out_var)
  execute_process(
    COMMAND ${CCSVM_DRIVER} ${flag}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${flag} exited ${rc}\nstderr: ${err}")
  endif()
  string(STRIP "${out}" out)
  string(REPLACE "\n" ";" names "${out}")
  set(${out_var} ${names} PARENT_SCOPE)
endfunction()

list_from_driver(--list-protocols protocols)
list_from_driver(--list-slice-hashes hashes)
list_from_driver(--list-replacers replacers)

# Run the driver, fail loudly, and require a passing validation.
function(run_ccsvm json)
  execute_process(
    COMMAND ${CCSVM_DRIVER} ${ARGN} --json ${json}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ccsvm ${ARGN} exited ${rc}\n"
                        "stdout: ${out}\nstderr: ${err}")
  endif()
  file(READ ${json} doc)
  string(JSON correct GET "${doc}" sim correct)
  if(NOT correct STREQUAL "ON" AND NOT correct STREQUAL "true")
    message(FATAL_ERROR "ccsvm ${ARGN}: failed validation")
  endif()
endfunction()

# Sum dirN.<suffix> over every bank of the machine in ${doc}.
function(sum_dir_counter doc suffix out_var)
  string(JSON banks GET "${doc}" machine l2_banks)
  set(total 0)
  math(EXPR last "${banks} - 1")
  foreach(b RANGE ${last})
    string(JSON v GET "${doc}" stats counters dir${b}.${suffix})
    math(EXPR total "${total} + ${v}")
  endforeach()
  set(${out_var} ${total} PARENT_SCOPE)
endfunction()

# Max of dirN.<suffix> over every bank of the machine in ${doc}.
function(max_dir_counter doc suffix out_var)
  string(JSON banks GET "${doc}" machine l2_banks)
  set(best 0)
  math(EXPR last "${banks} - 1")
  foreach(b RANGE ${last})
    string(JSON v GET "${doc}" stats counters dir${b}.${suffix})
    if(v GREATER best)
      set(best ${v})
    endif()
  endforeach()
  set(${out_var} ${best} PARENT_SCOPE)
endfunction()

# --- 1. explicit defaults are byte-identical to no flags at all -----
# The seams land in the hot path of every bank select and every
# victim choice; this is the proof they cost nothing behaviorally.
# "|"-separated so the flag lists survive CMake list flattening.
set(identity_workloads
    "--workload|matmul|--n|8"
    "--workload|synth:false|--iters|4")
foreach(proto IN LISTS protocols)
  foreach(wl_packed IN LISTS identity_workloads)
    string(REPLACE "|" ";" wl "${wl_packed}")
    string(REPLACE "|" "_" wl_tag "${wl_packed}")
    string(REGEX REPLACE "[^a-z0-9_]" "" wl_tag "${wl_tag}")
    set(base ${CCSVM_OUT_DIR}/bank_base_${proto}_${wl_tag}.json)
    set(expl ${CCSVM_OUT_DIR}/bank_expl_${proto}_${wl_tag}.json)
    run_ccsvm(${base} ${wl} --protocol ${proto})
    run_ccsvm(${expl} ${wl} --protocol ${proto}
              --slice-hash mod --l2-replace lru)
    file(READ ${base} base_doc)
    file(READ ${expl} expl_doc)
    # The machine section legitimately echoes the policy names, so
    # compare the behavioral sections byte for byte.
    foreach(section sim stats)
      string(JSON a GET "${base_doc}" ${section})
      string(JSON b GET "${expl_doc}" ${section})
      if(NOT a STREQUAL b)
        message(FATAL_ERROR
                "${proto}/${wl_tag}: explicit --slice-hash mod "
                "--l2-replace lru changed the ${section} section:\n"
                "--- defaults:\n${a}\n--- explicit:\n${b}")
      endif()
    endforeach()
  endforeach()
endforeach()

# The same default point run twice must emit byte-identical JSON.
foreach(wl_packed IN LISTS identity_workloads)
  string(REPLACE "|" ";" wl "${wl_packed}")
  string(REPLACE "|" "_" wl_tag "${wl_packed}")
  string(REGEX REPLACE "[^a-z0-9_]" "" wl_tag "${wl_tag}")
  run_ccsvm(${CCSVM_OUT_DIR}/bank_r1_${wl_tag}.json ${wl}
            --slice-hash mod --l2-replace lru)
  run_ccsvm(${CCSVM_OUT_DIR}/bank_r2_${wl_tag}.json ${wl}
            --slice-hash mod --l2-replace lru)
  file(READ ${CCSVM_OUT_DIR}/bank_r1_${wl_tag}.json r1_doc)
  file(READ ${CCSVM_OUT_DIR}/bank_r2_${wl_tag}.json r2_doc)
  if(NOT r1_doc STREQUAL r2_doc)
    message(FATAL_ERROR "${wl_tag}: the same run done twice emitted "
            "different JSON:\n--- first:\n${r1_doc}\n"
            "--- second:\n${r2_doc}")
  endif()
endforeach()

# --- 2. xorfold spreads the strided stream mod pins on one bank -----
# stride 256 = one access every 4 blocks: under mod with 4 banks the
# home bank is a pure function of the bits the stride holds constant.
set(skew_cfg --workload synth:stream --iters 1 --synth-threads 16
    --footprint-kb 1024 --stride 256)
run_ccsvm(${CCSVM_OUT_DIR}/bank_skew_mod.json ${skew_cfg}
          --slice-hash mod)
run_ccsvm(${CCSVM_OUT_DIR}/bank_skew_xorfold.json ${skew_cfg}
          --slice-hash xorfold)
file(READ ${CCSVM_OUT_DIR}/bank_skew_mod.json mod_doc)
file(READ ${CCSVM_OUT_DIR}/bank_skew_xorfold.json xor_doc)
max_dir_counter("${mod_doc}" occupancy mod_occ)
max_dir_counter("${xor_doc}" occupancy xor_occ)
message(STATUS "strided stream peak bank occupancy: mod=${mod_occ} "
               "xorfold=${xor_occ}")
if(NOT xor_occ LESS mod_occ)
  message(FATAL_ERROR "xorfold did not lower the hottest bank's peak "
          "occupancy on a 256B-strided stream (${xor_occ} vs mod's "
          "${mod_occ})")
endif()

# --- 3. the region replacer shields coherent lines under conflict ---
# Tiny banks (4 sets) put matmul's region-annotated read-mostly
# inputs and its coherent output in the same sets; lru evicts
# whatever is oldest, region spends the evictions on annotated lines.
set(region_cfg --workload matmul --n 32 --region-hints
    --l2-bank-kb 4)
run_ccsvm(${CCSVM_OUT_DIR}/bank_rep_lru.json ${region_cfg}
          --l2-replace lru)
run_ccsvm(${CCSVM_OUT_DIR}/bank_rep_region.json ${region_cfg}
          --l2-replace region)
file(READ ${CCSVM_OUT_DIR}/bank_rep_lru.json lru_doc)
file(READ ${CCSVM_OUT_DIR}/bank_rep_region.json region_doc)
sum_dir_counter("${lru_doc}" conflictEvictions lru_evs)
sum_dir_counter("${region_doc}" conflictEvictions region_evs)
sum_dir_counter("${lru_doc}" conflictEvictions.coherent lru_coh)
sum_dir_counter("${region_doc}" conflictEvictions.coherent
                region_coh)
message(STATUS "conflict evictions (coherent/total): "
               "lru=${lru_coh}/${lru_evs} "
               "region=${region_coh}/${region_evs}")
if(lru_evs EQUAL 0 OR region_evs EQUAL 0)
  message(FATAL_ERROR "the replacer probe config no longer "
          "conflicts (lru=${lru_evs}, region=${region_evs} total "
          "evictions); it proves nothing")
endif()
if(NOT region_coh LESS lru_coh)
  message(FATAL_ERROR "--l2-replace region did not lower coherent "
          "conflict evictions (${region_coh} vs lru's ${lru_coh})")
endif()

# --- 4. the committed conflict trace replays under every pair -------
set(trace ${CCSVM_TRACES_DIR}/synth_conflict.ccsvmt)
if(NOT EXISTS ${trace})
  message(FATAL_ERROR "missing committed trace ${trace}")
endif()
foreach(hash IN LISTS hashes)
  foreach(rep IN LISTS replacers)
    run_ccsvm(${CCSVM_OUT_DIR}/bank_replay_${hash}_${rep}.json
              --workload replay --trace ${trace}
              --slice-hash ${hash} --l2-replace ${rep})
  endforeach()
endforeach()

list(LENGTH protocols nproto)
list(LENGTH hashes nhash)
list(LENGTH replacers nrep)
message(STATUS "bank sweep ok: identity x ${nproto} protocols, "
               "occupancy skew, region replacer, replay x "
               "${nhash} hashes x ${nrep} replacers all hold")
