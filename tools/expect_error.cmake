# Runs the program EXAMPLE, with the space-separated arguments ARGS when
# set, and fails unless it exits with status 2 and its stderr is exactly
# the one line EXPECTED. A program that dies in std::terminate (status 134)
# or prints anything else fails.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${EXAMPLE} ${args} OUTPUT_QUIET
                ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${EXAMPLE} exited with ${rc}, not 2; stderr: ${err}")
endif()
if(NOT err STREQUAL "${EXPECTED}\n")
  message(FATAL_ERROR "stderr of ${EXAMPLE} is\n${err}not\n${EXPECTED}")
endif()
message("${EXAMPLE} refused its input: ${EXPECTED}")
