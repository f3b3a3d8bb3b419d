# CTest helper: a serve batch file that nests arrays far past the JSON
# parser's depth limit must end in a located parse error and exit 2,
# not in a stack overflow. Invoked as
#   cmake -DOWL_BIN=<owl> -DJOBS=<jobs file> -P run_serve_bad_json_check.cmake

execute_process(COMMAND ${OWL_BIN} serve --batch ${JOBS}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
# A signal shows up as a message such as "Segmentation fault", not 2.
if(NOT rc STREQUAL "2")
    message(FATAL_ERROR
        "`owl serve --batch ${JOBS}` ended with '${rc}', expected exit 2:\n${err}")
endif()
if(NOT err MATCHES "json error at offset 512: nesting too deep")
    message(FATAL_ERROR "no located nesting error:\n${err}")
endif()
