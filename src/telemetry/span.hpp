// RAII runtime spans with parent/child nesting and dual timelines.
//
// A Span measures a named scope on the wall clock (microseconds since the
// process epoch, steady clock) and — when the current thread runs inside a
// simulated process — on the simulator's virtual clock too. Nesting is
// tracked per thread: a Span opened while another is live becomes its child
// and inherits its track, so `group_respawn` → `group_create` → `mapper:*`
// renders as a proper flame in Perfetto (chrome_trace.hpp).
//
// The virtual clock is injected, not linked: mpsim installs a sampling hook
// via VirtualClockScope around runtime entry points, keeping this library
// dependency-free below hmpi_support.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hmpi::telemetry {

/// One finished span. `args` values are raw JSON fragments (already encoded).
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent_id = 0;  ///< 0 for root spans.
  std::string name;
  int track = 0;  ///< Renders as the Chrome-trace tid (usually a world rank).
  double wall_start_us = 0.0;  ///< Microseconds since the process epoch.
  double wall_dur_us = 0.0;
  double virt_start_s = 0.0;  ///< NaN when no virtual clock was installed.
  double virt_end_s = 0.0;
  std::vector<std::pair<std::string, std::string>> args;
};

/// Thread-safe store of the newest kCapacity finished spans. It is a ring,
/// like CausalLog's ring mode, so a long-running process (a scheduler
/// draining thousands of jobs) keeps a bounded log.
class TraceLog {
 public:
  /// Spans kept (about 7 MB of records); each newer one overwrites the
  /// oldest.
  static constexpr std::size_t kCapacity = 65536;

  void record(SpanRecord record);
  /// The kept spans, sorted by (wall_start_us, id).
  std::vector<SpanRecord> records() const;
  std::size_t size() const;
  /// Spans overwritten since the last clear().
  std::uint64_t dropped() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> records_;
  std::size_t head_ = 0;  ///< The oldest kept span once the ring is full.
  std::uint64_t dropped_ = 0;
};

/// The process-wide span log (exported by Runtime::trace_export_json).
TraceLog& spans();

/// Installs a virtual-clock sampler for the current thread for the scope's
/// lifetime; Spans opened on this thread stamp virt_start_s / virt_end_s by
/// calling `fn(ctx)`. Restores the previous hook (nesting-safe).
class VirtualClockScope {
 public:
  using ClockFn = double (*)(const void*);

  VirtualClockScope(ClockFn fn, const void* ctx);
  ~VirtualClockScope();

  VirtualClockScope(const VirtualClockScope&) = delete;
  VirtualClockScope& operator=(const VirtualClockScope&) = delete;

 private:
  ClockFn saved_fn_;
  const void* saved_ctx_;
};

/// RAII measurement scope; records into spans() on destruction.
class Span {
 public:
  explicit Span(std::string_view name);
  /// Explicit track for root spans (children inherit their parent's track).
  Span(std::string_view name, int track);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(std::string_view key, double value);
  void arg(std::string_view key, std::string_view value);
  /// `value` must already be valid JSON (e.g. from json_number).
  void arg_raw(std::string_view key, std::string value);

  std::uint64_t id() const noexcept { return record_.id; }

 private:
  void open(std::string_view name, int track, bool explicit_track);

  SpanRecord record_;
};

// HMPI_SPAN("name") / HMPI_SPAN("name", track) — anonymous scoped span.
#define HMPI_SPAN_CONCAT2(a, b) a##b
#define HMPI_SPAN_CONCAT(a, b) HMPI_SPAN_CONCAT2(a, b)
#define HMPI_SPAN(...) \
  ::hmpi::telemetry::Span HMPI_SPAN_CONCAT(hmpi_span_, __LINE__)(__VA_ARGS__)

}  // namespace hmpi::telemetry
