// Virtual-time trace exports of simulated runs.
//
// A Tracer records nothing itself: it is a view over the causal logs of the
// worlds it is attached to (WorldOptions::tracer attaches one; such a world
// keeps its whole log, traced-only kinds included) plus the instants the
// scheduler records outside any world. write_csv emits one line per event,
// and to_chrome_events / write_chrome_json export the same timeline in
// Chrome `trace_event` format for Perfetto (docs/observability.md). Both
// read every kind through telemetry::event_catalog().
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "telemetry/causal.hpp"

namespace hmpi::telemetry {
struct ChromeEvent;
}  // namespace hmpi::telemetry

namespace hmpi::mp {

/// Converts events to Chrome-trace form on the virtual timeline
/// (pid = telemetry::kVirtualPid, tid = rank, ts = virtual seconds scaled to
/// microseconds), with each kind's catalogue phase and args. Kinds the
/// catalogue does not export are skipped.
std::vector<telemetry::ChromeEvent> to_chrome_events(
    std::span<const telemetry::CausalEvent> events);

/// The trace of one or more runs.
class Tracer {
 public:
  Tracer();

  /// Adds a world's log to the view (World::run attaches its own).
  void attach(std::shared_ptr<const telemetry::CausalLog> log);

  /// The log of instants recorded outside any world (the scheduler's, with
  /// rank -1, filed under rank 0), kept whole. Shared, so a recorder racing
  /// clear() writes into the log it fetched.
  std::shared_ptr<telemetry::CausalLog> host_log() const;

  /// Every exported event of the attached logs, then of the host log, sorted
  /// by (t0, rank). Call after World::run.
  std::vector<telemetry::CausalEvent> events() const;

  /// `kind,world_rank,processor,peer,tag,context,bytes,units,start,end`
  /// lines, header included.
  void write_csv(std::ostream& os) const;

  /// Chrome `trace_event` JSON of events() (virtual timeline only; the
  /// runtime's combined exporter also merges wall-clock spans).
  void write_chrome_json(std::ostream& os) const;

  std::size_t size() const;

  /// Detaches every log and empties the host log.
  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<const telemetry::CausalLog>> logs_;
  std::shared_ptr<telemetry::CausalLog> host_;
};

}  // namespace hmpi::mp
