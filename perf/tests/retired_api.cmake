# Fails when a benchmark source names API the ROADMAP plans to delete: the
# engine selector, the estimator-mode selector, the delta evaluator and its
# counters, the scheme interpreter entry point and the portfolio's legacy
# threshold. The benchmark must keep measuring after those deletions land.
set(retired
  "SimEngine"
  "\\.engine[^a-z_]"
  "EstimatorMode"
  "\\.estimator[^a-z_]"
  "\\.delta[^a-z_]"
  "DeltaEvaluator"
  "estimate_time"
  "scale_threshold"
  "delta_[a-z_]+")

file(GLOB sources ${SOURCE_DIR}/*.cpp ${SOURCE_DIR}/*.hpp)
if(NOT sources)
  message(FATAL_ERROR "no benchmark sources under ${SOURCE_DIR}")
endif()
set(hits "")
foreach(source ${sources})
  file(READ ${source} text)
  foreach(pattern ${retired})
    string(REGEX MATCH "${pattern}" found "${text}")
    if(found)
      get_filename_component(name ${source} NAME)
      list(APPEND hits "${name}: ${found}")
    endif()
  endforeach()
endforeach()
if(hits)
  string(REPLACE ";" "\n  " hits "${hits}")
  message(FATAL_ERROR "retired API referenced:\n  ${hits}")
endif()
message("checked ${SOURCE_DIR}: no retired API")
