#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "telemetry/metrics.hpp"

extern char** environ;

namespace hmpi::perf {

int Tracer::begin(std::string_view name, long long op, int parent) {
  if (!enabled_) return -1;
  const double now = ms_between(epoch_, Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({std::string(name), op, id, parent, now, -1.0});
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const double now = ms_between(epoch_, Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ms = now;
}

void Tracer::add(std::string_view name, long long op, int parent,
                 double duration_ms) {
  if (!enabled_) return;
  const double now = ms_between(epoch_, Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({std::string(name), op, id, parent, now - duration_ms, now});
}

double Tracer::duration(int id) const {
  if (id < 0) return 0.0;
  std::lock_guard<std::mutex> lock(mutex_);
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return s.end_ms >= 0.0 ? s.end_ms - s.start_ms : 0.0;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ms >= 0.0) out.push_back(s.end_ms - s.start_ms);
  }
  return out;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Fingerprint::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (v >> (8 * i)) & 0xffU;
    hash_ *= 1099511628211ULL;
  }
}

void Fingerprint::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Fingerprint::add(std::string_view s) {
  add(static_cast<std::uint64_t>(s.size()));
  for (char c : s) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ULL;
  }
}

void Fingerprint::add(const hnoc::Cluster& cluster) {
  const int n = cluster.size();
  add(static_cast<std::uint64_t>(n));
  for (int p = 0; p < n; ++p) {
    add(cluster.processor(p).name);
    add(cluster.processor(p).speed);
  }
  for (int from = 0; from < n; ++from) {
    for (int to = 0; to < n; ++to) {
      const hnoc::LinkParams& link = cluster.link(from, to);
      add(link.latency_s);
      add(link.bandwidth_bps);
    }
  }
}

void Fingerprint::add(std::span<const pmdl::ParamValue> params) {
  add(static_cast<std::uint64_t>(params.size()));
  for (const pmdl::ParamValue& p : params) {
    if (const auto* scalar = std::get_if<long long>(&p)) {
      add(static_cast<std::uint64_t>(*scalar));
    } else {
      const auto& array = std::get<std::vector<long long>>(p);
      add(static_cast<std::uint64_t>(array.size()));
      for (long long v : array) add(static_cast<std::uint64_t>(v));
    }
  }
}

std::string Fingerprint::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

void Result::metric(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed;
  errors.push_back(what);
}

namespace {

const telemetry::JsonValue* reference_entry(const Result& result,
                                            std::string_view key) {
  if (result.options.seed != kDefaultSeed || !result.options.reference) {
    return nullptr;
  }
  const telemetry::JsonValue* workloads =
      result.options.reference->find("workloads");
  const telemetry::JsonValue* entry =
      workloads ? workloads->find(result.workload) : nullptr;
  return entry ? entry->find(key) : nullptr;
}

}  // namespace

void Result::check_reference(std::string_view key, double actual,
                             double tolerance) {
  if (options.seed != kDefaultSeed || !options.reference) return;
  const telemetry::JsonValue* expected = reference_entry(*this, key);
  if (!expected || !expected->is_number()) {
    check(false, "reference.json has no " + std::string(key) + " for " +
                     workload);
    return;
  }
  const double want = expected->number;
  const bool ok = tolerance == 0.0
                      ? actual == want
                      : std::fabs(actual - want) <= tolerance * std::fabs(want);
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s = %.17g, reference %.17g",
                std::string(key).c_str(), actual, want);
  check(ok, buf);
}

void Result::check_reference_hash() {
  if (options.seed != kDefaultSeed || !options.reference) return;
  const telemetry::JsonValue* expected = reference_entry(*this, "input_hash");
  check(expected && expected->is_string() && expected->string == input_hash,
        "input fingerprint " + input_hash + " differs from reference.json");
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives exec, so it would report the
  // launcher's footprint whenever that exceeds this process's own.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double messages_sent_total() {
  double total = 0.0;
  for (const auto& [name, value] : telemetry::metrics().snapshot().counters) {
    if (name.rfind("machine.", 0) == 0 && name.size() > 14 &&
        name.compare(name.size() - 14, 14, ".messages_sent") == 0) {
      total += value;
    }
  }
  return total;
}

double counter_value(std::string_view name) {
  return telemetry::metrics().snapshot().counter_value(name);
}

void add_end_to_end(Result& result, double setup_s, double rss_mb,
                    const std::vector<double>& op_ms, double timed_s) {
  const auto ops = static_cast<double>(op_ms.size());
  result.metric("setup_s", setup_s, "s");
  result.metric("wall_s", seconds_since(result.options.process_start), "s");
  result.metric("op_p50_ms", percentile(op_ms, 0.5), "ms");
  if (op_ms.size() >= kP90MinOps) {
    result.metric("op_p90_ms", percentile(op_ms, 0.9), "ms");
  }
  result.metric("ops", ops, "count");
  result.metric("ops_per_s", timed_s > 0.0 ? ops / timed_s : 0.0, "1/s");
  result.metric("rss_peak_mb", rss_mb, "MB");
  result.metric("fail_frac",
                result.attempted > 0
                    ? static_cast<double>(result.failed) /
                          static_cast<double>(result.attempted)
                    : 1.0,
                "ratio");
}

void clear_library_env() {
  std::vector<std::string> names;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry(*env);
    if (entry.rfind("HMPI_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
}

void use_event_engine() { setenv("HMPI_SIM_ENGINE", "event", 1); }

}  // namespace hmpi::perf
