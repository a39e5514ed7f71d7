#include <map>
#include <string>

#include "probes.hpp"
#include "workloads.hpp"

namespace hmpi::perf {
namespace {

/// Span name -> reported metric: the median span duration times `scale`.
struct SpanMetric {
  const char* span;
  const char* metric;
  double scale;
  const char* unit;
};

constexpr double kPerMapping = 1e3 / static_cast<double>(kBatchProbeMappings);

constexpr SpanMetric kSpanMetrics[] = {
    {"pmdl.parse", "pmdl.parse_ms", 1.0, "ms"},
    {"pmdl.instantiate", "pmdl.instantiate_ms", 1.0, "ms"},
    {"estimator.compile", "estimator.compile_ms", 1.0, "ms"},
    {"estimator.batch_eval", "estimator.batch_eval_us", kPerMapping, "us"},
    {"mapper.search", "mapper.search_ms", 1.0, "ms"},
    {"mapper.select", "mapper.select_ms", 1.0, "ms"},
    {"hmpi.init", "hmpi.init_ms", 1.0, "ms"},
    {"hmpi.recon", "hmpi.recon_ms", 1.0, "ms"},
    {"hmpi.timeof", "hmpi.timeof_ms", 1.0, "ms"},
    {"hmpi.group_create", "hmpi.group_create_ms", 1.0, "ms"},
    {"hmpi.app", "hmpi.app_ms", 1.0, "ms"},
    {"hmpi.group_free", "hmpi.group_free_ms", 1.0, "ms"},
    {"hmpi.finalize", "hmpi.finalize_ms", 1.0, "ms"},
    {"coll.allreduce", "coll.allreduce_ms", 1.0, "ms"},
    {"coll.barrier", "coll.barrier_ms", 1.0, "ms"},
    {"mpsim.small_world", "mpsim.small_world_ms", 1.0, "ms"},
    {"sched.submit", "sched.submit_us", 1e3, "us"},
    {"sched.dispatch_step", "sched.dispatch_step_ms", 1.0, "ms"},
    {"sched.other_step", "sched.other_step_ms", 1.0, "ms"},
};

/// Median over traced ops of the share of the op's wall time that no span
/// inside it accounts for. Inside an op, the direct children of the op span
/// and of its mpsim.run span (the world the host's calls run in) count.
double unattributed_frac(const std::vector<Span>& spans) {
  std::map<long long, double> op_ms;
  std::map<long long, double> covered;
  const auto duration = [](const Span& s) { return s.end_ms - s.start_ms; };
  for (const Span& s : spans) {
    if (s.name == "op") {
      op_ms[s.op] = duration(s);
      continue;
    }
    if (s.parent < 0) continue;
    const Span& parent = spans[static_cast<std::size_t>(s.parent)];
    const bool in_op = parent.name == "op" && s.name != "mpsim.run";
    const bool in_world = parent.name == "mpsim.run" && parent.parent >= 0 &&
                          spans[static_cast<std::size_t>(parent.parent)].name ==
                              "op";
    if (in_op || in_world) covered[s.op] += duration(s);
  }
  std::vector<double> fracs;
  for (const auto& [op, ms] : op_ms) {
    if (ms > 0.0) fracs.push_back(1.0 - covered[op] / ms);
  }
  return median(fracs);
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

}  // namespace

void add_layer_metrics(Result& result, const Tracer& tracer,
                       const LayerLog& log) {
  bool hmpi_spans = false;
  for (const SpanMetric& m : kSpanMetrics) {
    const std::vector<double> d = tracer.durations(m.span);
    if (d.empty()) continue;
    result.metric(m.metric, median(d) * m.scale, m.unit);
    hmpi_spans = hmpi_spans || std::string(m.span).rfind("hmpi.", 0) == 0;
  }
  if (hmpi_spans) {
    result.metric("hmpi.unattributed_frac", unattributed_frac(tracer.spans()),
                  "ratio");
  }

  const double untraced_p50 = median(log.untraced_ms);
  result.metric("trace_overhead_frac",
                untraced_p50 > 0.0 ? median(log.traced_ms) / untraced_p50 - 1.0
                                   : 0.0,
                "ratio");

  // The per-layer set of BENCHMARK.json.
  const double world_s = sum(log.world_ms) / 1e3;
  result.metric("mpsim.run_ms", median(log.world_ms), "ms");
  result.metric("mpsim.msgs_per_s", world_s > 0.0 ? log.messages / world_s : 0.0,
                "1/s");
  result.metric("mpsim.rss_per_proc_kb",
                log.max_world_procs > 0
                    ? log.rss_mb * 1024.0 / log.max_world_procs
                    : 0.0,
                "KB");
  result.metric("mpsim.dispatches",
                log.world_ms.empty()
                    ? 0.0
                    : log.dispatches / static_cast<double>(log.world_ms.size()),
                "count");

  std::vector<double> evaluations;
  double evals = 0.0;
  double search_s = 0.0;
  double hits = 0.0;
  double misses = 0.0;
  for (const map::SearchStats& s : log.searches) {
    evaluations.push_back(static_cast<double>(s.evaluations));
    evals += static_cast<double>(s.evaluations);
    search_s += s.wall_seconds;
    hits += static_cast<double>(s.cache_hits);
    misses += static_cast<double>(s.cache_misses);
  }
  result.metric("mapper.evaluations", median(evaluations), "count");
  result.metric("mapper.evals_per_s", search_s > 0.0 ? evals / search_s : 0.0,
                "1/s");
  const std::vector<double> batch = tracer.durations("estimator.batch_eval");
  const double batch_ms = median(batch);
  result.metric("estimator.batch_evals_per_s",
                batch_ms > 0.0 ? static_cast<double>(kBatchProbeMappings) /
                                     (batch_ms / 1e3)
                               : 0.0,
                "1/s");
  result.metric("estimator.plans_compiled", log.plans_compiled, "count");
  result.metric("estimator.cache_hit_rate",
                hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio");

  result.metric("sched.dispatched", log.sched_dispatched, "count");
  result.metric("sched.preempted", log.sched_preempted, "count");
  result.metric("sched.backfilled", log.sched_backfilled, "count");
}

}  // namespace hmpi::perf
