# Runs CMD with the space-separated ARGS and fails unless it exits with
# EXPECT_CODE and its stderr matches the regex EXPECT_STDERR; with
# EXPECT_EMPTY_STDOUT=ON, also unless it wrote nothing to stdout.
#
#   cmake -DCMD=<binary> "-DARGS=<args>" -DEXPECT_CODE=2 \
#         -DEXPECT_STDERR=<regex> [-DEXPECT_EMPTY_STDOUT=ON] \
#         -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CMD}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_CODE}")
    message(FATAL_ERROR "${CMD} ${ARGS}: exit ${code}, expected "
                        "${EXPECT_CODE}; stderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
    message(FATAL_ERROR "${CMD} ${ARGS}: stderr does not match "
                        "'${EXPECT_STDERR}':\n${err}")
endif()
if(EXPECT_EMPTY_STDOUT AND NOT out STREQUAL "")
    message(FATAL_ERROR "${CMD} ${ARGS}: wrote to stdout before "
                        "exiting ${code}:\n${out}")
endif()
