# Runs `hmpi_perf compare` on two synthetic result files and checks its exit
# code and the verdict printed for EXPECT_METRIC.
execute_process(COMMAND ${EXE} compare --benchmark ${BENCH} ${A} ${B}
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT code EQUAL EXPECT_CODE)
  message(FATAL_ERROR "compare exited ${code}, expected ${EXPECT_CODE}")
endif()
if(NOT out MATCHES "fig9_em3d +${EXPECT_METRIC} +${EXPECT_VERDICT}")
  message(FATAL_ERROR "expected ${EXPECT_METRIC} to be reported ${EXPECT_VERDICT}")
endif()
