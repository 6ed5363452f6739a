# Fuzz-smoke: the acceptance battery for the damn_fuzz driver.
#
#  1. Determinism: `--ops=5000 --seed=42` over the full matrix prints
#     byte-identical stdout across repeated runs AND across --jobs
#     values (virtual time, no wall-clock leakage).
#  2. Oracle self-check: `--inject=stale-tlb` plants a silently dropped
#     IOTLB invalidation; the no-stale-translation oracle must catch it
#     and the shrinker must minimize the repro to <= 12 ops.
#  3. Oracle self-check (ATS): `--inject=stale-devtlb` silently drops
#     device-TLB (ATC) invalidations; the stale-device-tlb oracle must
#     catch what the IOTLB oracle cannot see, shrunk to <= 12 ops.
#  4. Regression corpus: every committed tests/corpus/*.dfz replays to
#     its recorded verdict.
#  5. Usage errors: zero or out-of-range counts exit 2 instead of being
#     truncated to a vacuous run.
#
# Invoked as:
#   cmake -DFUZZ=<damn_fuzz> -DOUT=<dir> -DCORPUS=<tests/corpus> \
#         -P fuzz_smoke.cmake

# ---- 1. determinism across runs and --jobs --------------------------

foreach(tag j1a j1b j8)
    if(tag STREQUAL "j8")
        set(jobs 8)
    else()
        set(jobs 1)
    endif()
    execute_process(
        COMMAND ${FUZZ} --ops=5000 --seed=42 --jobs=${jobs}
        RESULT_VARIABLE rc
        OUTPUT_FILE ${OUT}/fuzz_${tag}.out)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "damn_fuzz matrix run (${tag}) failed: ${rc}")
    endif()
endforeach()

foreach(other j1b j8)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                ${OUT}/fuzz_j1a.out ${OUT}/fuzz_${other}.out
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "damn_fuzz output not deterministic (j1a vs ${other})")
    endif()
endforeach()

# ---- 2. injected stale-TLB bug: caught and shrunk -------------------

foreach(cell "strict.vtd" "deferred.smmuv3")
    string(REPLACE "." ";" parts ${cell})
    list(GET parts 0 scheme)
    list(GET parts 1 backend)
    execute_process(
        COMMAND ${FUZZ} --ops=40 --seed=7 --scheme=${scheme}
                --backend=${backend} --inject=stale-tlb --shrink
                --save=${OUT}
        RESULT_VARIABLE rc
        OUTPUT_FILE ${OUT}/fuzz_inject_${scheme}_${backend}.out)
    if(NOT rc EQUAL 3)
        message(FATAL_ERROR
                "injected stale-TLB bug not caught in ${cell} "
                "(exit ${rc}, want 3)")
    endif()
    file(READ ${OUT}/fuzz_inject_${scheme}_${backend}.out inject_out)
    if(NOT inject_out MATCHES "oracle=stale-translation")
        message(FATAL_ERROR
                "${cell}: violation not attributed to the "
                "stale-translation oracle:\n${inject_out}")
    endif()
    set(repro ${OUT}/${scheme}-${backend}-seed7-stale.dfz)
    file(READ ${repro} dfz)
    if(NOT dfz MATCHES "ops ([0-9]+)")
        message(FATAL_ERROR "${repro}: no ops header")
    endif()
    if(CMAKE_MATCH_1 GREATER 12)
        message(FATAL_ERROR
                "${cell}: shrunk repro has ${CMAKE_MATCH_1} ops "
                "(acceptance bound is 12)")
    endif()
    # The minimized repro must itself replay to the same verdict.
    execute_process(
        COMMAND ${FUZZ} --replay=${repro}
        RESULT_VARIABLE rc
        OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${cell}: shrunk repro failed to replay")
    endif()
endforeach()

# ---- 3. injected stale device-TLB bug: caught and shrunk ------------

foreach(cell "strict.vtd" "deferred.smmuv3")
    string(REPLACE "." ";" parts ${cell})
    list(GET parts 0 scheme)
    list(GET parts 1 backend)
    execute_process(
        COMMAND ${FUZZ} --ops=40 --seed=7 --scheme=${scheme}
                --backend=${backend} --inject=stale-devtlb --shrink
                --save=${OUT}
        RESULT_VARIABLE rc
        OUTPUT_FILE ${OUT}/fuzz_devtlb_${scheme}_${backend}.out)
    if(NOT rc EQUAL 3)
        message(FATAL_ERROR
                "injected stale device-TLB bug not caught in ${cell} "
                "(exit ${rc}, want 3)")
    endif()
    file(READ ${OUT}/fuzz_devtlb_${scheme}_${backend}.out inject_out)
    if(NOT inject_out MATCHES "oracle=stale-device-tlb")
        message(FATAL_ERROR
                "${cell}: violation not attributed to the "
                "stale-device-tlb oracle:\n${inject_out}")
    endif()
    set(repro ${OUT}/${scheme}-${backend}-seed7-stale-devtlb.dfz)
    file(READ ${repro} dfz)
    if(NOT dfz MATCHES "ops ([0-9]+)")
        message(FATAL_ERROR "${repro}: no ops header")
    endif()
    if(CMAKE_MATCH_1 GREATER 12)
        message(FATAL_ERROR
                "${cell}: shrunk devtlb repro has ${CMAKE_MATCH_1} ops "
                "(acceptance bound is 12)")
    endif()
    execute_process(
        COMMAND ${FUZZ} --replay=${repro}
        RESULT_VARIABLE rc
        OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "${cell}: shrunk devtlb repro failed to replay")
    endif()
endforeach()

# ---- 4. committed regression corpus ---------------------------------

file(GLOB corpus_files ${CORPUS}/*.dfz)
if(NOT corpus_files)
    message(FATAL_ERROR "no committed corpus files under ${CORPUS}")
endif()
foreach(f ${corpus_files})
    execute_process(
        COMMAND ${FUZZ} --replay=${f}
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "corpus replay diverged for ${f} (exit ${rc})")
    endif()
endforeach()

# ---- 5. out-of-range counts are usage errors ------------------------

foreach(arg --ops=0 --ops=4294967296 --jobs=0 --jobs=4294967296
        --ops=18446744073709551616 --seed=18446744073709551616)
    execute_process(
        COMMAND ${FUZZ} ${arg}
        RESULT_VARIABLE rc
        OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "damn_fuzz ${arg}: exit ${rc}, want 2 (usage)")
    endif()
endforeach()
