// The five hmpi_perf workloads (README.md has the table: what one op is,
// why each workload is in the set, and which layers it exercises).
#pragma once

#include <string_view>
#include <vector>

#include "common.hpp"
#include "mapper/mapper.hpp"

namespace hmpi::perf {

Result run_fig9_em3d(const Options& options);
Result run_fig11_mm(const Options& options);
Result run_timeof_p1000(const Options& options);
Result run_spmd_p2k(const Options& options);
Result run_sched_a13(const Options& options);

struct Workload {
  std::string_view name;
  Result (*run)(const Options&);
};

inline constexpr Workload kWorkloads[] = {
    {"fig9_em3d", run_fig9_em3d},
    {"fig11_mm", run_fig11_mm},
    {"timeof_p1000", run_timeof_p1000},
    {"spmd_p2k", run_spmd_p2k},
    {"sched_a13", run_sched_a13},
};

/// What a traced pass observed besides its spans. A traced run alternates
/// untraced and traced ops so both see the same machine state.
struct LayerLog {
  std::vector<double> untraced_ms;  ///< Latency of the interleaved untraced ops.
  std::vector<double> traced_ms;    ///< Latency of the traced ops.
  std::vector<double> world_ms;     ///< Host time of each simulated world run.
  double messages = 0.0;            ///< Simulated messages sent in them.
  int max_world_procs = 0;          ///< Processes of the largest world.
  double rss_mb = 0.0;              ///< Peak RSS after setup and warm-up.
  double dispatches = 0.0;          ///< Growth of the sim.dispatches counter.
  std::vector<map::SearchStats> searches;  ///< Selection searches observed.
  double plans_compiled = 0.0;      ///< Per op, from Runtime::estimator_stats.
  double sched_dispatched = 0.0;    ///< Per drain, from SchedStats.
  double sched_preempted = 0.0;
  double sched_backfilled = 0.0;
};

/// Adds the traced pass's metrics: the median of each layer span the run
/// recorded (README.md lists them), trace_overhead_frac, and the per-layer
/// set of BENCHMARK.json, which every workload reports (0 for a count or
/// rate of a layer the workload never enters).
void add_layer_metrics(Result& result, const Tracer& tracer,
                       const LayerLog& log);

}  // namespace hmpi::perf
