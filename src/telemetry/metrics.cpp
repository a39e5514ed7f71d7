#include "telemetry/metrics.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <ostream>

#include "support/error.hpp"
#include "telemetry/json.hpp"

namespace hmpi::telemetry {
namespace {

constexpr auto kCounter = MetricKind::kCounter;
constexpr auto kGauge = MetricKind::kGauge;
constexpr auto kHistogram = MetricKind::kHistogram;

// docs/observability.md's metrics table shows these rows verbatim, and
// test_telemetry fails when the two differ.
constexpr MetricSpec kCatalog[] = {
    {"recons", kCounter, "count", "every `HMPI_Recon` collective"},
    {"timeof_calls", kCounter, "count",
     "every `HMPI_Timeof` evaluation, one per parameter set of a batch"},
    {"timeof_batch_calls", kCounter, "count", "every `HMPI_Timeof_batch` call"},
    {"groups_created", kCounter, "count",
     "parent side of a successful `HMPI_Group_create`"},
    {"group_respawns", kCounter, "count",
     "every `group_respawn` recovery (docs/faults.md)"},
    {"group_migrations", kCounter, "count",
     "every `group_migrate` onto a new roster (docs/adaptation.md)"},
    {"mapper_searches", kCounter, "count", "each finished group-selection search"},
    {"estimator_evaluations", kCounter, "count",
     "arrangements the searches scored, cache hits included"},
    {"processors_suspected", kCounter, "count",
     "recon timeouts marking a processor suspect (docs/faults.md)"},
    {"processors_recovered", kCounter, "count",
     "recons clearing a suspect processor"},
    {"messages_dropped", kCounter, "count",
     "messages the simulator's fault plan dropped"},
    {"messages_delayed", kCounter, "count",
     "messages the simulator's fault plan delayed"},
    {"est.compile.count", kCounter, "count",
     "plans compiled at a Timeof or Group_create prefetch (docs/estimator.md)"},
    {"est.compile.hits", kCounter, "count",
     "prefetches that found the plan compiled"},
    {"est.compile.misses", kCounter, "count", "prefetches that compiled the plan"},
    {"est.compile.evaluations", kCounter, "count",
     "arrangements the estimator kernel priced (cache hits excluded)"},
    {"est.cache.hits", kCounter, "count",
     "estimate-cache lookups of the one-at-a-time searches answered from the cache "
     "(docs/mapper.md §4)"},
    {"est.cache.misses", kCounter, "count",
     "estimate-cache lookups the kernel had to price"},
    {"mapper.batch.chunks", kCounter, "count",
     "batch scoring requests of the beam and work-stealing searches "
     "(docs/mapper.md)"},
    {"mapper.batch.candidates", kCounter, "count",
     "selections scored through the batch path, each priced by the kernel"},
    {"sim.dispatches", kCounter, "count",
     "event-engine fiber resumes (docs/simulator.md)"},
    {"sim.stalls", kCounter, "count", "structural-stall wakeups"},
    {"sim.stacks_mapped", kCounter, "count",
     "fiber stacks newly mapped; a stack reused from the pool does not count"},
    {"sim.runs.event", kCounter, "count",
     "`World::run` calls (every world runs on the event engine)"},
    {"machine.<p>.compute_seconds", kCounter, "s",
     "virtual seconds machine `p` spent computing"},
    {"machine.<p>.sent_bytes", kCounter, "bytes",
     "bytes sent by the processes on machine `p`"},
    {"machine.<p>.messages_sent", kCounter, "count",
     "messages sent by the processes on machine `p`"},
    {"coll.<op>.<algo>", kCounter, "count",
     "each executed collective, per chosen algorithm (docs/collectives.md)"},
    {"coll.tuner.hits", kCounter, "count",
     "CollTuner selection-memo hits, flushed at finalize"},
    {"coll.tuner.misses", kCounter, "count",
     "CollTuner selection-memo misses, flushed at finalize"},
    {"adapt.checks", kCounter, "count",
     "every `adapt_observe` round and `adapt_recon` drift check "
     "(docs/adaptation.md)"},
    {"adapt.triggers", kCounter, "count", "watchdog trips"},
    {"adapt.migrations", kCounter, "count", "migrations kept"},
    {"adapt.rollbacks", kCounter, "count", "migrations the guard rolled back"},
    {"adapt.suppressed", kCounter, "count",
     "migrations the cost/benefit gate suppressed"},
    {"sched.submitted", kCounter, "count",
     "jobs submitted to the scheduler service (docs/scheduler.md)"},
    {"sched.dispatched", kCounter, "count",
     "job dispatches, re-dispatches after a preemption included"},
    {"sched.completed", kCounter, "count", "jobs completed"},
    {"sched.preempted", kCounter, "count", "lease revocations that requeued a job"},
    {"sched.backfilled", kCounter, "count",
     "dispatches that slid past the queue head"},
    {"sched.cancelled", kCounter, "count", "jobs cancelled"},

    {"cache_hit_rate", kGauge, "ratio",
     "estimate-cache hit rate of the most recent search, in [0, 1]"},
    {"adapt.divergence", kGauge, "ratio",
     "smoothed divergence behind the latest `adapt_observe` check"},
    {"adapt.drift", kGauge, "ratio",
     "speed drift behind the latest `adapt_recon` check"},
    {"adapt.blame_share", kGauge, "ratio",
     "dominant blame entry's share of the critical path at the latest "
     "blame-informed check"},
    {"crit.path_seconds", kGauge, "s",
     "critical-path length, published at finalize before the metrics dump"},
    {"crit.makespan_seconds", kGauge, "s", "virtual makespan of the run"},
    {"crit.compute_seconds", kGauge, "s", "path time spent computing"},
    {"crit.transfer_seconds", kGauge, "s", "path time spent in flight"},
    {"crit.overhead_seconds", kGauge, "s",
     "path time spent in send and receive overheads"},
    {"crit.gap_seconds", kGauge, "s",
     "path time left unattributed at the ring horizon"},
    {"crit.segments", kGauge, "count", "segments on the path"},
    {"crit.complete", kGauge, "flag",
     "1 when the path reaches virtual time 0, else 0"},
    {"crit.events_dropped", kGauge, "count",
     "causal events the ring dropped"},
    {"crit.machine.<p>.seconds", kGauge, "s",
     "path compute time blamed on machine `p`"},
    {"crit.link.<src>.<dst>.seconds", kGauge, "s",
     "path wait and transfer time blamed on the link from `src` to `dst`"},
    {"crit.coll.<op>.<algo>.seconds", kGauge, "s",
     "path time inside that collective algorithm"},
    {"sched.queue_depth", kGauge, "count", "jobs queued now"},
    {"sched.queue_depth_peak", kGauge, "count", "most jobs queued at once"},
    {"sched.running", kGauge, "count", "jobs holding leases now"},
    {"sched.utilization", kGauge, "ratio",
     "time-weighted fraction of busy machines"},
    {"sched.makespan_s", kGauge, "s", "virtual time of the last completion"},
    {"sched.throughput_jobs_per_s", kGauge, "1/s",
     "completions per virtual second"},
    {"sim.fibers", kGauge, "count", "processes of the latest run"},
    {"sim.ready_peak", kGauge, "count", "longest ready queue of the latest run"},
    {"sim.stack_bytes", kGauge, "bytes", "fiber stack size of the latest run"},

    {"recon_seconds", kHistogram, "s",
     "virtual time of each process's last recon benchmark attempt"},
    {"group_create_seconds", kHistogram, "s",
     "host wall time of each successful `HMPI_Group_create` (parent side)"},
    {"search_wall_seconds", kHistogram, "s",
     "host wall time of each group-selection search"},
    {"coll.<op>.seconds", kHistogram, "s",
     "virtual duration of each executed collective"},
    {"est.compile.seconds", kHistogram, "s", "host wall time of each plan compile"},
    {"adapt.predicted_gain_seconds", kHistogram, "s",
     "gain the gate predicted for each kept migration"},
    {"adapt.realized_gain_seconds", kHistogram, "s",
     "gain each migration realised at its next measured round"},
    {"sched.wait_seconds", kHistogram, "s",
     "each job's wait from arrival to first dispatch"},
    {"sched.turnaround_seconds", kHistogram, "s",
     "each job's time from arrival to completion"},
    {"sched.service_seconds", kHistogram, "s", "each job's total virtual service"},
};

// Matches `name` against `pattern`, a placeholder taking one whole
// dot-separated segment of its class, and keeps the segments `<op>` and
// `<algo>` took.
bool matches(std::string_view pattern, std::string_view name,
             std::string_view& op, std::string_view& algo) {
  while (true) {
    const std::size_t open = pattern.find('<');
    const std::string_view literal = pattern.substr(0, open);
    if (!name.starts_with(literal)) return false;
    name.remove_prefix(literal.size());
    if (open == std::string_view::npos) return name.empty();
    const std::size_t close = pattern.find('>', open);
    const std::string_view token = pattern.substr(open + 1, close - open - 1);
    pattern.remove_prefix(close + 1);
    const std::string_view segment = name.substr(0, name.find('.'));
    name.remove_prefix(segment.size());
    const bool number = token == "p" || token == "src" || token == "dst";
    const auto in_class = [number](char c) {
      return (c >= '0' && c <= '9') ||
             (!number && ((c >= 'a' && c <= 'z') || c == '_'));
    };
    if (segment.empty() ||
        !std::all_of(segment.begin(), segment.end(), in_class)) {
      return false;
    }
    if (token == "op") op = segment;
    if (token == "algo") algo = segment;
  }
}

void require_declared(std::string_view name, MetricKind kind) {
  if (find_metric(name, kind) == nullptr) {
    throw InvalidArgument("metric '" + std::string(name) +
                          "' is not declared as a " + metric_kind_name(kind) +
                          " in the metric catalogue (docs/observability.md)");
  }
}

}  // namespace

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "counter";
}

std::span<const MetricSpec> metric_catalog() { return kCatalog; }

const MetricSpec* find_metric(std::string_view name, MetricKind kind,
                              MetricTokenCheck check) {
  for (const MetricSpec& spec : kCatalog) {
    std::string_view op;
    std::string_view algo;
    if (spec.kind == kind && matches(spec.pattern, name, op, algo) &&
        (check == nullptr || op.empty() || check(op, algo))) {
      return &spec;
    }
  }
  return nullptr;
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)),
      counts_(upper_bounds_.size() + 1, 0) {}

void Histogram::observe(double v) {
  std::lock_guard lock(mutex_);
  const auto it =
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), v);
  counts_[static_cast<std::size_t>(it - upper_bounds_.begin())] += 1;
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

Histogram::Snapshot Histogram::snapshot() const {
  std::lock_guard lock(mutex_);
  Snapshot snap;
  snap.upper_bounds = upper_bounds_;
  snap.counts = counts_;
  snap.count = count_;
  snap.sum = sum_;
  snap.min = min_;
  snap.max = max_;
  return snap;
}

double Histogram::Snapshot::percentile(double q) const {
  if (count == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  const double target = std::max(q * static_cast<double>(count), 1.0);
  long long cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const long long below = cumulative;
    cumulative += counts[b];
    if (static_cast<double>(cumulative) < target) continue;
    const double lower = b == 0 ? min : upper_bounds[b - 1];
    const double upper = b < upper_bounds.size() ? upper_bounds[b] : max;
    const double fraction =
        (target - static_cast<double>(below)) / static_cast<double>(counts[b]);
    return std::clamp(lower + (upper - lower) * fraction, min, max);
  }
  return max;
}

void Histogram::reset() {
  std::lock_guard lock(mutex_);
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

std::span<const double> default_seconds_buckets() {
  static constexpr std::array<double, 17> kBuckets = {
      1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2,
      3e-2, 1e-1, 3e-1, 1.0,  3.0,  10.0, 30.0, 100.0};
  return kBuckets;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    require_declared(name, MetricKind::kCounter);
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    require_declared(name, MetricKind::kGauge);
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> upper_bounds) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    require_declared(name, MetricKind::kHistogram);
    if (upper_bounds.empty()) upper_bounds = default_seconds_buckets();
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::vector<double>(
                          upper_bounds.begin(), upper_bounds.end())))
             .first;
  }
  return *it->second;
}

double MetricsRegistry::Snapshot::counter_value(std::string_view name) const {
  for (const auto& [k, v] : counters) {
    if (k == name) return v;
  }
  return 0.0;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) snap.counters.emplace_back(name, c->value());
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) snap.gauges.emplace_back(name, g->value());
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace_back(name, h->snapshot());
  }
  return snap;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  const Snapshot snap = snapshot();
  os << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    "
       << json_quote(snap.counters[i].first) << ": "
       << json_number(snap.counters[i].second);
  }
  os << (snap.counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    "
       << json_quote(snap.gauges[i].first) << ": "
       << json_number(snap.gauges[i].second);
  }
  os << (snap.gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& [name, h] = snap.histograms[i];
    os << (i == 0 ? "\n" : ",\n") << "    " << json_quote(name) << ": {"
       << "\"count\": " << h.count << ", \"sum\": " << json_number(h.sum)
       << ", \"min\": " << json_number(h.min)
       << ", \"max\": " << json_number(h.max)
       << ", \"p50\": " << json_number(h.percentile(0.50))
       << ", \"p95\": " << json_number(h.percentile(0.95))
       << ", \"p99\": " << json_number(h.percentile(0.99))
       << ", \"buckets\": [";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      if (b > 0) os << ", ";
      os << "{\"le\": "
         << (b < h.upper_bounds.size() ? json_number(h.upper_bounds[b])
                                       : std::string("null"))
         << ", \"count\": " << h.counts[b] << "}";
    }
    os << "]}";
  }
  os << (snap.histograms.empty() ? "" : "\n  ") << "}\n}\n";
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

MetricsRegistry& metrics() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace hmpi::telemetry
