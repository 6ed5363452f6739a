# Parallel-determinism smoke through the real binary: the same seed at
# --jobs=1 and --jobs=8 must write byte-identical --json and --trace
# files (the in-process equivalent lives in tests/test_parallel.cc).
#
# Invoked as:
#   cmake -DBENCH=<damn_bench> -DOUT=<dir> -P jobs_smoke.cmake

set(args --only=fig4* --backend=vtd,smmuv3 --warmup-ms=1 --measure-ms=3
         --repeat=2)

foreach(jobs 1 8)
    execute_process(
        COMMAND ${BENCH} ${args} --jobs=${jobs}
                --trace=${OUT}/jobs_${jobs}.trace
                --json=${OUT}/jobs_${jobs}.json
        RESULT_VARIABLE rc
        OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "damn_bench --jobs=${jobs} failed: ${rc}")
    endif()
endforeach()

foreach(ext json trace)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                ${OUT}/jobs_1.${ext} ${OUT}/jobs_8.${ext}
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "--jobs=8 ${ext} output differs from --jobs=1")
    endif()
endforeach()
