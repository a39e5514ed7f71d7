# Runs the example EXAMPLE and fails unless it exits 0 and its stdout equals
# the file EXPECTED byte for byte. The stdout is kept in ACTUAL, so a failure
# can be inspected with `diff EXPECTED ACTUAL`.
execute_process(COMMAND ${EXAMPLE} OUTPUT_FILE ${ACTUAL} RESULT_VARIABLE rc)
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
