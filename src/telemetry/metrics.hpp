// Process-wide metrics registry (docs/observability.md).
//
// Counters, gauges, and fixed-bucket histograms, registered by name and
// shared by every subsystem: the runtime observes recon/group_create
// durations, the mapper search routes its cost accounting here, and the
// simulator counts per-machine compute seconds and fault-plan drops. Every
// name is declared once, with its kind and unit, in the metric catalogue
// (metric_catalog()); registering a name the catalogue does not declare
// under the requested kind throws. The registry is thread-safe, because
// any host thread may record into it (World::run runs a world's fibers on
// its caller's thread, so one process may run several worlds at once), and
// metric references stay valid forever: reset() zeroes values but never
// destroys a metric, so call sites may cache `Counter&` across resets.
//
// Snapshots are plain data (sorted by name) and dump as JSON for tools —
// see docs/observability.md for the catalog and the file format.
#pragma once

#include <atomic>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hmpi::telemetry {

/// Monotonically increasing value (double so it can carry seconds and bytes
/// as naturally as event counts).
class Counter {
 public:
  void add(double delta = 1.0) noexcept { value_.fetch_add(delta, std::memory_order_relaxed); }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `upper_bounds` are the inclusive bucket ceilings
/// in ascending order, with an implicit overflow bucket above the last.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  struct Snapshot {
    std::vector<double> upper_bounds;  ///< One per finite bucket.
    std::vector<long long> counts;     ///< upper_bounds.size() + 1 (overflow last).
    long long count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< 0 when count == 0.
    double max = 0.0;

    /// Estimated q-quantile (q in [0, 1]) by linear interpolation inside the
    /// bucket holding the ceil(q * count)-th observation: the bucket's lower
    /// edge is the previous ceiling (the recorded min for the first bucket),
    /// its upper edge the ceiling (the recorded max for the overflow
    /// bucket), and the observation's rank within the bucket sets the
    /// interpolation fraction. Results are clamped to [min, max]; NaN when
    /// the histogram is empty.
    double percentile(double q) const;
  };
  Snapshot snapshot() const;

  void reset();

 private:
  mutable std::mutex mutex_;
  std::vector<double> upper_bounds_;
  std::vector<long long> counts_;
  long long count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Default ceilings for duration histograms: 1us .. 100s, one decade plus a
/// 3x midpoint per step (the spans of interest range from microsecond cache
/// lookups to multi-second benchmark loops).
std::span<const double> default_seconds_buckets();

/// The instrument a metric name is declared as.
enum class MetricKind { kCounter, kGauge, kHistogram };

/// "counter", "gauge" or "histogram".
const char* metric_kind_name(MetricKind kind);

/// One entry of the metric catalogue. `pattern` is a name in which a
/// placeholder stands for one whole dot-separated segment: `<p>`, `<src>`
/// and `<dst>` a decimal integer, `<op>` and `<algo>` a lower-case name
/// (`[a-z0-9_]+`).
struct MetricSpec {
  std::string_view pattern;
  MetricKind kind;
  std::string_view unit;     ///< count, s, bytes, ratio, flag or 1/s.
  std::string_view meaning;  ///< One line; docs/observability.md shows it.
};

/// Every metric the library emits: the only declaration of its name, kind
/// and unit. The docs table and tools/telemetry_check derive from it.
std::span<const MetricSpec> metric_catalog();

/// Accepts or rejects the `<op>` and `<algo>` segments a name matched
/// (`algo` is empty for a pattern without `<algo>`).
using MetricTokenCheck = bool (*)(std::string_view op, std::string_view algo);

/// The first catalogue entry of `kind` whose pattern matches `name` and,
/// when `check` is given and the pattern has `<op>`, whose segments `check`
/// accepts; nullptr when there is none.
const MetricSpec* find_metric(std::string_view name, MetricKind kind,
                              MetricTokenCheck check = nullptr);

/// Named metrics, created on first use. See file comment for the contract.
class MetricsRegistry {
 public:
  /// counter(), gauge() and histogram() throw InvalidArgument when they
  /// would create a metric that metric_catalog() does not declare as that
  /// kind; returning an existing metric checks nothing.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `upper_bounds` is honoured on first registration only (empty selects
  /// default_seconds_buckets()); later calls return the existing histogram.
  Histogram& histogram(std::string_view name,
                       std::span<const double> upper_bounds = {});

  struct Snapshot {
    std::vector<std::pair<std::string, double>> counters;  ///< Sorted by name.
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;

    /// Counter value by exact name; 0 when absent.
    double counter_value(std::string_view name) const;
  };
  Snapshot snapshot() const;

  /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`. Histogram
  /// buckets list `{"le": ceiling, "count": n}` with `"le": null` for the
  /// overflow bucket.
  void write_json(std::ostream& os) const;

  /// Zeroes every metric. References handed out earlier remain valid.
  void reset();

 private:
  mutable std::mutex mutex_;
  // std::map: sorted snapshots for free; unique_ptr: stable addresses.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// The process-wide registry every subsystem records into.
MetricsRegistry& metrics();

}  // namespace hmpi::telemetry
