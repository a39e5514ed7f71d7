// Telemetry output sinks: where the JSON dumps land.
//
// Configured on RuntimeConfig (programmatic) and overridable with
// environment variables so examples, benches, and CI opt in without code
// changes: HMPI_METRICS_JSON / HMPI_TRACE_JSON / HMPI_CRITPATH_JSON name the
// destination files. An empty path disables a sink; an empty variable
// keeps the configured path.
#pragma once

#include <string>

namespace hmpi::telemetry {

struct Sinks {
  std::string metrics_json;   ///< MetricsRegistry::write_json destination.
  std::string trace_json;     ///< Chrome trace_event JSON destination.
  std::string critpath_json;  ///< CriticalPathReport JSON destination.

  /// Sinks built purely from the environment variables.
  static Sinks from_env();

  /// This config with any set, non-empty environment variable taking
  /// precedence.
  Sinks with_env_overrides() const;

  bool any() const noexcept {
    return !metrics_json.empty() || !trace_json.empty() ||
           !critpath_json.empty();
  }
};

}  // namespace hmpi::telemetry
