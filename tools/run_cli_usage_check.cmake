# CTest helper: a removed flag or a malformed number must end in a
# usage error (exit 2 and the usage text), never be silently ignored
# or replaced by a default. Invoked as
#   cmake -DOWL_BIN=<owl> -DEXAMPLE=<bundle.owl> -P run_cli_usage_check.cmake

# Run `owl synth accumulator <args>` (optionally under OWL_JOBS=<env>)
# and require exit 2, the usage text, and `want` in the message.
function(expect_usage_error env want)
    set(cmd ${OWL_BIN} synth accumulator ${ARGN})
    if(NOT env STREQUAL "")
        set(cmd ${CMAKE_COMMAND} -E env OWL_JOBS=${env} ${cmd})
    endif()
    execute_process(COMMAND ${cmd}
                    RESULT_VARIABLE rc
                    OUTPUT_QUIET
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR
            "`${cmd}` exited ${rc}, expected 2 (usage error):\n${err}")
    endif()
    if(NOT err MATCHES "usage: owl" OR NOT err MATCHES "${want}")
        message(FATAL_ERROR
            "`${cmd}` printed no usage error naming ${want}:\n${err}")
    endif()
endfunction()

expect_usage_error("" "usage: owl" --portfolio 2)
expect_usage_error("" "usage: owl" --inprocess 0)
expect_usage_error("" "--jobs" --jobs abc)
expect_usage_error("" "--jobs" --jobs 4x)
expect_usage_error("" "--budget" --budget xyz)
expect_usage_error("abc" "OWL_JOBS")

# Well-formed values still run.
execute_process(COMMAND ${OWL_BIN} synth accumulator --jobs 2
                        --budget 60
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "valid numeric flags rejected (exit ${rc}):\n${err}")
endif()

# `owl verify` takes the same --jobs: one and two workers verify, and
# zero is out of range like it is for synth.
foreach(jobs 1 2)
    execute_process(COMMAND ${OWL_BIN} verify accumulator --jobs ${jobs}
                    RESULT_VARIABLE rc
                    OUTPUT_QUIET
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "`owl verify accumulator --jobs ${jobs}` exited ${rc}:\n${err}")
    endif()
endforeach()
execute_process(COMMAND ${OWL_BIN} verify accumulator --jobs 0
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "--jobs")
    message(FATAL_ERROR
        "`owl verify accumulator --jobs 0` exited ${rc}, expected 2 "
        "(usage error naming --jobs):\n${err}")
endif()

# A `with cycles` depth too large for an int, in an otherwise valid
# bundle, is a located parse error (exit 2), not an abort.
file(READ ${EXAMPLE} bundle)
string(REGEX REPLACE "with cycles: [0-9]+"
       "with cycles: 99999999999999999999" bundle "${bundle}")
set(big ${CMAKE_CURRENT_BINARY_DIR}/cli_usage_big_cycles.owl)
file(WRITE ${big} "${bundle}")
execute_process(COMMAND ${OWL_BIN} lint ${big}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
file(REMOVE ${big})
if(NOT rc EQUAL 2 OR NOT err MATCHES "at line [0-9]+, column [0-9]+")
    message(FATAL_ERROR
        "`owl lint` on an oversized `with cycles` exited ${rc}, "
        "expected 2 with a located error:\n${err}")
endif()

# `owl serve --batch` reads at most serve::kMaxBatchFileBytes (16 MiB)
# plus one byte: one byte more is refused before parsing, a file at
# the cap reaches the JSON parser.
string(REPEAT " " 1048576 mib)
string(REPEAT "${mib}" 16 at_cap)
set(batch ${CMAKE_CURRENT_BINARY_DIR}/cli_usage_big_batch.json)
foreach(extra "" " ")
    file(WRITE ${batch} "${at_cap}${extra}")
    execute_process(COMMAND ${OWL_BIN} serve --batch ${batch}
                    RESULT_VARIABLE rc
                    OUTPUT_QUIET
                    ERROR_VARIABLE err)
    if(extra STREQUAL "")
        if(err MATCHES "exceeds")
            message(FATAL_ERROR
                "`owl serve --batch` refused a file at the cap:\n${err}")
        endif()
    elseif(NOT rc EQUAL 2 OR NOT err MATCHES
           "owl serve: [^\n]*: batch file exceeds 16777216 bytes")
        message(FATAL_ERROR
            "`owl serve --batch` on a file over the cap exited ${rc}, "
            "expected 2 naming the cap:\n${err}")
    endif()
endforeach()
file(REMOVE ${batch})
