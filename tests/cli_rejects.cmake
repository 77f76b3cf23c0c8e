# Runs an example command line (-DCLI=...) with one bad option
# (-DFLAG=... -DVALUE=...) and requires its usage text and exit code 1. A
# crash reports a signal name instead of a number, so it fails the check
# too.
get_filename_component(prog "${CLI}" NAME_WE)
execute_process(COMMAND "${CLI}" "${FLAG}" "${VALUE}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
    message(FATAL_ERROR
            "${prog} ${FLAG} ${VALUE}: exit '${rc}', want 1\n${out}${err}")
endif()
if(NOT out MATCHES "usage: ${prog}")
    message(FATAL_ERROR "${prog} ${FLAG} ${VALUE}: no usage text\n${out}")
endif()
