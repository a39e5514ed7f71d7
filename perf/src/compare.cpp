#include "compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "common.hpp"
#include "telemetry/json.hpp"

namespace hmpi::perf {
namespace {

struct Rule {
  double bound = 0.0;
  bool higher_is_better = false;
};

/// Outputs that are deterministic for a given seed: any move counts.
const std::map<std::string, Rule> kDeterministic = {
    {"vtime_s", {0.0, false}},
    {"speedup_vs_mpi", {0.0, true}},
    {"timeof_rel_err", {0.0, false}},
    {"msgs", {0.0, false}},
};

/// Per-workload bounds that replace a metric's own. sched_a13's makespan
/// moves between runs under the thread engine (README.md, findings): ten
/// seed-0 runs spanned 1.05%, their two halves' medians 0.29%.
const std::map<std::pair<std::string, std::string>, double> kWorkloadBounds = {
    {{"sched_a13", "vtime_s"}, 0.01},
};

std::optional<telemetry::JsonValue> load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "compare: cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  auto doc = telemetry::parse_json(text.str(), &error);
  if (!doc) std::fprintf(stderr, "compare: %s: %s\n", path.c_str(), error.c_str());
  return doc;
}

/// The untraced runs of one workload in one results file.
struct WorkloadSamples {
  std::map<std::string, std::vector<double>> metrics;  ///< metric -> values
  double attempted = 0.0;  ///< Summed over the runs.
  double failed = 0.0;

  /// Failed over attempted, pooled over every run, so one failing run
  /// among many passing ones still counts.
  double fail_frac() const { return attempted > 0.0 ? failed / attempted : 1.0; }
};

/// workload -> its samples.
using Samples = std::map<std::string, WorkloadSamples>;

std::optional<Samples> samples_of(const telemetry::JsonValue& doc,
                                  const std::string& path) {
  const telemetry::JsonValue* runs = doc.find("runs");
  if (!runs || !runs->is_array()) {
    std::fprintf(stderr, "compare: %s has no \"runs\" array\n", path.c_str());
    return std::nullopt;
  }
  Samples samples;
  for (const telemetry::JsonValue& run : runs->array) {
    const telemetry::JsonValue* traced = run.find("traced");
    const telemetry::JsonValue* workload = run.find("workload");
    const telemetry::JsonValue* metrics = run.find("metrics");
    const telemetry::JsonValue* attempted = run.find("attempted");
    const telemetry::JsonValue* failed = run.find("failed");
    if (!workload || !workload->is_string() || !metrics ||
        !metrics->is_object() || !attempted || !attempted->is_number() ||
        !failed || !failed->is_number()) {
      std::fprintf(stderr, "compare: %s: malformed run\n", path.c_str());
      return std::nullopt;
    }
    if (traced && traced->boolean) continue;
    WorkloadSamples& into = samples[workload->string];
    into.attempted += attempted->number;
    into.failed += failed->number;
    for (const auto& [name, metric] : metrics->object) {
      const telemetry::JsonValue* value = metric.find("value");
      if (value && value->is_number()) {
        into.metrics[name].push_back(value->number);
      }
    }
  }
  return samples;
}

double relative_spread(const std::vector<double>& values) {
  const double mid = median(values);
  if (values.size() < 2 || mid == 0.0) return 0.0;
  return (percentile(values, 0.75) - percentile(values, 0.25)) / std::fabs(mid);
}

}  // namespace

int compare_results(const std::string& benchmark_path, const std::string& a_path,
                    const std::string& b_path) {
  const auto bench = load(benchmark_path);
  const auto a_doc = load(a_path);
  const auto b_doc = load(b_path);
  if (!bench || !a_doc || !b_doc) return 2;
  const auto a = samples_of(*a_doc, a_path);
  const auto b = samples_of(*b_doc, b_path);
  if (!a || !b) return 2;

  std::map<std::string, Rule> rules = kDeterministic;
  const telemetry::JsonValue* end_to_end = bench->find("end_to_end");
  if (!end_to_end || !end_to_end->is_array()) {
    std::fprintf(stderr, "compare: %s has no end_to_end list\n",
                 benchmark_path.c_str());
    return 2;
  }
  for (const telemetry::JsonValue& m : end_to_end->array) {
    const telemetry::JsonValue* name = m.find("name");
    const telemetry::JsonValue* bound = m.find("bound");
    const telemetry::JsonValue* better = m.find("better");
    if (!name || !bound || !better || !bound->is_number()) {
      std::fprintf(stderr, "compare: malformed end_to_end entry\n");
      return 2;
    }
    rules[name->string] = {bound->number, better->string == "higher"};
  }

  bool regressed = false;
  for (const auto& [workload, a_samples] : *a) {
    const auto b_it = b->find(workload);
    if (b_it == b->end()) {
      std::printf("%-14s %-16s missing\n", workload.c_str(), "-");
      regressed = true;
      continue;
    }
    const auto& a_metrics = a_samples.metrics;
    const auto& b_metrics = b_it->second.metrics;
    for (auto [metric, rule] : rules) {
      const auto override_it = kWorkloadBounds.find({workload, metric});
      if (override_it != kWorkloadBounds.end()) rule.bound = override_it->second;
      const auto a_values = a_metrics.find(metric);
      const auto b_values = b_metrics.find(metric);
      if (a_values == a_metrics.end()) continue;
      if (b_values == b_metrics.end()) {
        std::printf("%-14s %-16s missing\n", workload.c_str(), metric.c_str());
        regressed = true;
        continue;
      }
      const std::vector<double>& av = a_values->second;
      const std::vector<double>& bv = b_values->second;
      const double a_mid = median(av);
      const double b_mid = median(bv);
      // Relative change in the "worse" direction (positive = worse).
      double worse = 0.0;
      if (a_mid != 0.0) {
        worse = (rule.higher_is_better ? a_mid - b_mid : b_mid - a_mid) /
                std::fabs(a_mid);
      } else if (b_mid != a_mid) {
        worse = (rule.higher_is_better ? b_mid < a_mid : b_mid > a_mid)
                    ? std::numeric_limits<double>::infinity()
                    : -std::numeric_limits<double>::infinity();
      }
      const auto [a_lo, a_hi] = std::minmax_element(av.begin(), av.end());
      const auto [b_lo, b_hi] = std::minmax_element(bv.begin(), bv.end());
      const bool every_b_better =
          rule.higher_is_better ? *b_lo > *a_hi : *b_hi < *a_lo;
      const double spread =
          std::max(relative_spread(av), relative_spread(bv));

      const char* verdict = "unchanged";
      if (every_b_better && worse < 0.0) {
        verdict = "better";
      } else if (spread > rule.bound) {
        verdict = "unresolved";
      } else if (worse > rule.bound) {
        verdict = "worse";
      } else if (worse < -rule.bound) {
        verdict = "better";
      }
      if (std::string(verdict) == "worse") regressed = true;
      std::printf("%-14s %-16s %-10s A=%.6g B=%.6g (%+.2f%% worse, bound %.2f%%, "
                  "spread %.2f%%, %zu vs %zu runs)\n",
                  workload.c_str(), metric.c_str(), verdict, a_mid, b_mid,
                  100.0 * worse, 100.0 * rule.bound, 100.0 * spread, av.size(),
                  bv.size());
    }
    const double af = a_samples.fail_frac();
    const double bf = b_it->second.fail_frac();
    const bool rose = bf > af;
    regressed = regressed || rose;
    std::printf("%-14s %-16s %-10s A=%.6g B=%.6g (failed / attempted over "
                "all runs)\n",
                workload.c_str(), "fail_frac", rose ? "worse" : "unchanged", af,
                bf);
  }
  std::printf("compare: %s\n", regressed ? "REGRESSION" : "no regression");
  return regressed ? 1 : 0;
}

}  // namespace hmpi::perf
