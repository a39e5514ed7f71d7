#include "telemetry/sinks.hpp"

#include "support/env.hpp"

namespace hmpi::telemetry {

Sinks Sinks::from_env() { return Sinks{}.with_env_overrides(); }

Sinks Sinks::with_env_overrides() const {
  Sinks out = *this;
  out.metrics_json = support::env::text("HMPI_METRICS_JSON", metrics_json);
  out.trace_json = support::env::text("HMPI_TRACE_JSON", trace_json);
  out.critpath_json = support::env::text("HMPI_CRITPATH_JSON", critpath_json);
  return out;
}

}  // namespace hmpi::telemetry
