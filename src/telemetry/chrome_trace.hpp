// Chrome `trace_event` JSON export (loads in Perfetto / chrome://tracing).
//
// Two timelines share one file, separated by pid: the simulator's virtual
// clock (pid kVirtualPid — causal-log events seen through mp::Tracer, ts in
// virtual microseconds) and the runtime's wall clock (pid kRuntimePid —
// telemetry spans, ts in microseconds since the process epoch). Mapper
// searches cost wall time but zero virtual time, so folding both onto one
// clock would collapse every search span to a sliver; Perfetto renders the
// two process groups side by side instead. Within each (pid, tid) track the writer
// guarantees non-decreasing ts.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/span.hpp"

namespace hmpi::telemetry {

inline constexpr int kVirtualPid = 1;  ///< mpsim events, virtual time.
inline constexpr int kRuntimePid = 2;  ///< telemetry spans, wall time.

/// One event in Chrome trace format. ph 'X' = complete (ts + dur),
/// 'i' = instant, 'M' = metadata, 's'/'f' = flow start/finish (message
/// arrows between tracks; `flow_id` pairs the two ends).
struct ChromeEvent {
  std::string name;
  std::string cat = "hmpi";
  char ph = 'X';
  double ts_us = 0.0;
  double dur_us = 0.0;
  int pid = kVirtualPid;
  int tid = 0;
  std::uint64_t flow_id = 0;  ///< Written as "id" for flow phases only.
  /// Values are raw JSON fragments (already encoded).
  std::vector<std::pair<std::string, std::string>> args;

  ChromeEvent& arg(std::string_view key, double value);
  ChromeEvent& arg(std::string_view key, std::string_view value);
  ChromeEvent& arg_raw(std::string_view key, std::string value);
};

/// Converts finished spans to 'X' events on kRuntimePid (tid = span track).
/// Span ids, parents, and virtual timestamps ride along as args.
std::vector<ChromeEvent> spans_to_chrome(std::span<const SpanRecord> records);

/// Writes `{"traceEvents": [...]}`. Events are stably sorted by
/// (pid, tid, ts) so each track is monotonic, and a process_name metadata
/// record is prepended per pid.
void write_chrome_trace(std::ostream& os, std::vector<ChromeEvent> events);

}  // namespace hmpi::telemetry
