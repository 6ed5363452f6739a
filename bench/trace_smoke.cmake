# Golden-trace smoke: run damn_bench twice with the same seed and
# --only glob, and require the Chrome trace and the JSON report to be
# byte-identical across the two runs.  Two passes: netperf_stream (the
# trace showcase) and fig7_memcached (a workload whose machine records
# only because the driver hands it the trace setting).
#
# Invoked as:
#   cmake -DBENCH=<damn_bench> -DOUT=<dir> -P trace_smoke.cmake

set(pass_netperf --only=netperf_stream --schemes=strict,damn
                 --warmup-ms=1 --measure-ms=3)
set(pass_memcached --only=fig7_memcached --schemes=strict,damn
                   --warmup-ms=1 --measure-ms=3)

foreach(pass netperf memcached)
    foreach(run a b)
        execute_process(
            COMMAND ${BENCH} ${pass_${pass}}
                    --trace=${OUT}/trace_${pass}_${run}.json
                    --json=${OUT}/report_${pass}_${run}.json
            RESULT_VARIABLE rc
            OUTPUT_QUIET)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR
                    "damn_bench ${pass} run '${run}' failed: ${rc}")
        endif()
    endforeach()

    foreach(file trace report)
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E compare_files
                    ${OUT}/${file}_${pass}_a.json
                    ${OUT}/${file}_${pass}_b.json
            RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR "${pass} ${file} output differs "
                                "between same-seed runs")
        endif()
    endforeach()

    # The trace must be non-trivial (events, not just the JSON
    # skeleton).
    file(SIZE ${OUT}/trace_${pass}_a.json trace_bytes)
    if(trace_bytes LESS 1000)
        message(FATAL_ERROR "${pass} trace output suspiciously small: "
                            "${trace_bytes} bytes")
    endif()
endforeach()
