# Runs flashsim_cli with one bad option (-DCLI=... -DFLAG=... -DVALUE=...)
# and requires the usage text and exit code 1. A crash reports a signal
# name instead of a number, so it fails the check too.
execute_process(COMMAND "${CLI}" "${FLAG}" "${VALUE}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
    message(FATAL_ERROR
            "flashsim_cli ${FLAG} ${VALUE}: exit '${rc}', want 1\n${out}${err}")
endif()
if(NOT out MATCHES "usage: flashsim_cli")
    message(FATAL_ERROR "flashsim_cli ${FLAG} ${VALUE}: no usage text\n${out}")
endif()
