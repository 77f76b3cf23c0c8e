# Runs an example command line (-DCLI=...) with one bad option
# (-DFLAG=... -DVALUE=...) and requires its usage text and exit code 1. A
# crash reports a signal name instead of a number, so it fails the check
# too. -DPRE=... (a list, e.g. --app;lu) adds leading options that make
# the value bad.
get_filename_component(prog "${CLI}" NAME_WE)
set(args ${PRE} "${FLAG}" "${VALUE}")
string(JOIN " " shown ${args})
execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
    message(FATAL_ERROR
            "${prog} ${shown}: exit '${rc}', want 1\n${out}${err}")
endif()
if(NOT out MATCHES "usage: ${prog}")
    message(FATAL_ERROR "${prog} ${shown}: no usage text\n${out}")
endif()
