# Run one command and require an exact exit status and a stderr match:
# usage errors must exit 2 and name the offending flag, which WILL_FAIL
# (any non-zero status) cannot tell apart from a crash or a runtime error.
#
#   cmake -DCOMMAND="prog|arg|arg..." -DSTATUS=2 -DSTDERR=regex
#         -P exit_status_check.cmake
#
# Arguments in COMMAND are separated by '|' so they survive add_test.
string(REPLACE "|" ";" command "${COMMAND}")
execute_process(COMMAND ${command}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL STATUS)
    message(FATAL_ERROR "exit status ${rc}, expected ${STATUS}\n"
                        "stdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "${STDERR}")
    message(FATAL_ERROR "stderr does not match '${STDERR}':\n${err}")
endif()
