# A label with a double quote must survive bench_report's JSON writer:
# the report has to parse (checked here with CMake's own JSON reader),
# carry the label verbatim, and pass bench_compare against itself.
#
#   cmake -DBENCH_REPORT=path -DBENCH_COMPARE=path -DOUT=file.json
#         -P quoted_label_check.cmake
set(label "a\"b")
execute_process(COMMAND ${BENCH_REPORT} --repeats 1 --metrics scoreVectors
                        --label ${label} --out ${OUT}
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_report exited with ${rc}")
endif()
file(READ ${OUT} doc)
string(JSON written ERROR_VARIABLE error GET "${doc}" label)
if(error)
    message(FATAL_ERROR "${OUT} is not valid JSON: ${error}")
endif()
if(NOT written STREQUAL label)
    message(FATAL_ERROR "label came back as '${written}', not '${label}'")
endif()
execute_process(COMMAND ${BENCH_COMPARE} ${OUT} ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_compare of ${OUT} against itself exited "
                        "with ${rc}")
endif()
