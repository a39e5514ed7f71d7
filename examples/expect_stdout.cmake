# Runs the program EXAMPLE, with the space-separated arguments ARGS when
# set, and fails unless it exits 0 and its stdout equals the file EXPECTED
# byte for byte. The stdout is kept in ACTUAL, so a failure can be inspected
# with `diff EXPECTED ACTUAL`.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${EXAMPLE} ${args} OUTPUT_FILE ${ACTUAL}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${EXPECTED} ${ACTUAL}
                RESULT_VARIABLE differ)
if(differ)
  message(FATAL_ERROR "stdout of ${EXAMPLE} differs from ${EXPECTED}; "
                      "see: diff ${EXPECTED} ${ACTUAL}")
endif()
message("stdout of ${EXAMPLE} equals ${EXPECTED}")
