# Runs bench_paper (-DPAPER=...) with an unknown section name and
# requires the usage text and exit code 1. A crash reports a signal
# name instead of a number, so it fails the check too.
execute_process(COMMAND "${PAPER}" no_such_section
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
    message(FATAL_ERROR "bench_paper no_such_section: exit '${rc}', want 1\n${out}${err}")
endif()
if(NOT err MATCHES "usage: bench_paper")
    message(FATAL_ERROR "bench_paper no_such_section: no usage text\n${out}${err}")
endif()
