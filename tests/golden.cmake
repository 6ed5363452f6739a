# Golden behaviour fingerprint: one pass of a repository-benchmark
# workload must reproduce the fingerprint committed in
# perfbench/expected/<workload>.json, with no failures.  On a mismatch
# the entries that moved are printed, expected vs got.
#
# Invoked as:
#   cmake -DDRIVER=<perfbench_driver> -DWORKLOAD=<name> \
#         -DEXPECTED=<perfbench/expected/name.json> -DOUT=<dir> \
#         -P golden.cmake

set(result ${OUT}/golden_${WORKLOAD}.json)
execute_process(
    COMMAND ${DRIVER} --workload=${WORKLOAD} --seconds=0 --out=${result}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "perfbench_driver --workload=${WORKLOAD} "
                        "failed: ${rc}")
endif()

file(READ ${result} got_doc)
file(READ ${EXPECTED} want_doc)
string(JSON got_fp GET "${got_doc}" workloads ${WORKLOAD} passes 0
       fingerprint)
string(JSON want_fp GET "${want_doc}" fingerprint)
string(JSON nfail LENGTH "${got_doc}" workloads ${WORKLOAD} passes 0
       failures)

set(problems "")
if(nfail GREATER 0)
    math(EXPR last "${nfail} - 1")
    foreach(i RANGE ${last})
        string(JSON f GET "${got_doc}" workloads ${WORKLOAD} passes 0
               failures ${i})
        string(APPEND problems "  FAILED ${f}\n")
    endforeach()
endif()

if(NOT got_fp STREQUAL want_fp)
    string(JSON got GET "${got_doc}" workloads ${WORKLOAD} entries)
    string(JSON want GET "${want_doc}" entries)
    # Union of both key sets, so added and dropped entries show too.
    set(keys "")
    foreach(doc got want)
        string(JSON n LENGTH "${${doc}}")
        if(n GREATER 0)
            math(EXPR last "${n} - 1")
            foreach(i RANGE ${last})
                string(JSON k MEMBER "${${doc}}" ${i})
                list(APPEND keys "${k}")
            endforeach()
        endif()
    endforeach()
    list(REMOVE_DUPLICATES keys)
    list(SORT keys)
    set(moved 0)
    foreach(k IN LISTS keys)
        string(JSON g ERROR_VARIABLE gerr GET "${got}" "${k}")
        string(JSON w ERROR_VARIABLE werr GET "${want}" "${k}")
        if(gerr)
            set(g "<missing>")
        endif()
        if(werr)
            set(w "<missing>")
        endif()
        if(NOT g STREQUAL w)
            math(EXPR moved "${moved} + 1")
            string(APPEND problems
                   "  ${k}: expected '${w}', got '${g}'\n")
        endif()
    endforeach()
    string(PREPEND problems
           "fingerprint ${got_fp} != expected ${want_fp}; "
           "${moved} entries moved\n")
endif()

if(NOT problems STREQUAL "")
    message(FATAL_ERROR "${WORKLOAD}:\n${problems}")
endif()
message(STATUS "${WORKLOAD}: fingerprint ${got_fp} matches")
