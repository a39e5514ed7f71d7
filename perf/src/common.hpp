// Shared machinery of the hmpi_perf workloads: run options, the result
// record every workload fills, in-memory spans, input fingerprints and the
// reference values checked on the default seed.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hnoc/cluster.hpp"
#include "pmdl/model.hpp"
#include "telemetry/json.hpp"

namespace hmpi::perf {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

inline double seconds_since(Clock::time_point from) {
  return ms_between(from, Clock::now()) / 1e3;
}

/// The seed whose inputs and deterministic outputs reference.json pins. It
/// reproduces the inputs of the paper figures and the A10/A13 ablations.
inline constexpr std::uint64_t kDefaultSeed = 0;

struct Options {
  std::uint64_t seed = kDefaultSeed;
  double seconds = 8.0;
  bool traced = false;
  /// Parsed reference.json (null when absent); checked only on kDefaultSeed.
  const telemetry::JsonValue* reference = nullptr;
  /// When the workload process started (main builds its Options first).
  /// setup_s runs from here to the first timed op, warm-up included.
  Clock::time_point process_start = Clock::now();
};

/// One span of the traced pass: a public call the benchmark wrapped.
struct Span {
  std::string name;
  long long op = -1;  ///< Timed op the span belongs to (-1: setup/teardown).
  int id = 0;
  int parent = -1;
  double start_ms = 0.0;  ///< Since the tracer was created.
  double end_ms = 0.0;
};

/// In-memory span recorder. Disabled tracers record nothing, so the
/// untraced pass pays one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  /// Opens a span; returns its id, or -1 when disabled.
  int begin(std::string_view name, long long op, int parent = -1);
  void end(int id);

  /// Records a span measured elsewhere (e.g. a search's own wall clock).
  void add(std::string_view name, long long op, int parent, double duration_ms);

  /// Duration (ms) of closed span `id`; 0 when disabled or still open.
  double duration(int id) const;

  /// Durations (ms) of every closed span named `name`.
  std::vector<double> durations(std::string_view name) const;

  std::vector<Span> spans() const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, long long op,
             int parent = -1)
      : tracer_(tracer), id_(tracer.begin(name, op, parent)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// FNV-1a over the generated inputs, so a change to a generator outside
/// perf/ (bench_util.hpp, src/apps, hnoc::testbeds) shows as a new hash.
class Fingerprint {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(std::string_view s);
  void add(const hnoc::Cluster& cluster);
  void add(std::span<const pmdl::ParamValue> params);
  std::string hex() const;

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced.
struct Result {
  std::string workload;
  Options options;
  long long attempted = 0;  ///< Timed ops attempted.
  long long failed = 0;     ///< Ops that threw or failed a check, plus
                            ///< failed run-level checks.
  std::vector<std::string> errors;
  std::string input_hash;
  std::vector<Metric> metrics;
  std::vector<Span> spans;

  void metric(std::string name, double value, std::string unit);

  /// Records a run-level check; a failure counts in `failed`.
  void check(bool ok, const std::string& what);

  /// Compares `actual` with reference.json's value for this workload's
  /// `key` on the default seed (relative `tolerance`; 0 = bit-exact).
  void check_reference(std::string_view key, double actual,
                       double tolerance = 0.0);
  void check_reference_hash();
};

/// Order statistics of op latencies (linear interpolation between ranks).
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Peak resident set of this process (VmHWM), MB.
double peak_rss_mb();

/// Sum of the simulator's per-machine `machine.*.messages_sent` counters.
double messages_sent_total();

/// Value of a telemetry counter (0 when never registered).
double counter_value(std::string_view name);

/// Ops needed for ten samples to lie above the 90th percentile.
inline constexpr int kP90MinOps = 100;

/// Adds the end-to-end metrics shared by every workload. `rss_mb` is the
/// peak RSS once setup and warm-up are done: it must not depend on how many
/// ops fit in the time box, or a faster op would read as more memory.
/// wall_s runs from process start to now. op_p90_ms is reported only with
/// at least kP90MinOps samples.
void add_end_to_end(Result& result, double setup_s, double rss_mb,
                    const std::vector<double>& op_ms, double timed_s);

/// Runs `op` until `seconds` of wall time have been spent in the timed loop
/// (at least `min_ops` times); records each op's latency in ms. An op that
/// throws counts as failed. `op` returns false when its own checks fail.
/// Returns the loop's wall time in seconds.
template <typename Op>
double timed_loop(Result& result, double seconds, int min_ops,
                  std::vector<double>& op_ms, Op&& op) {
  const Clock::time_point start = Clock::now();
  const auto elapsed_s = [&start] { return seconds_since(start); };
  for (long long i = 0; i < min_ops || elapsed_s() < seconds; ++i) {
    ++result.attempted;
    const Clock::time_point t0 = Clock::now();
    bool ok = false;
    try {
      ok = op(i);
    } catch (const std::exception& e) {
      result.errors.push_back("op " + std::to_string(i) + ": " + e.what());
    }
    op_ms.push_back(ms_between(t0, Clock::now()));
    if (!ok) ++result.failed;
  }
  return elapsed_s();
}

/// Clears every HMPI_* environment variable so the library runs on its
/// defaults regardless of the caller's environment.
void clear_library_env();

/// Selects the event engine for this workload process. The ROADMAP's engine
/// consolidation deletes this knob; the setting then becomes a no-op.
void use_event_engine();

}  // namespace hmpi::perf
