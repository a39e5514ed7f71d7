// Ablation A13: the hmpictld scheduler service (docs/scheduler.md) on a
// 2000-job multi-tenant arrival trace.
//
// The baseline is slurm-without-plugins: FIFO order, exclusive machine
// leases, no backfill, no preemption — the discipline an HNOC inherits when
// every user simply runs mpirun against the whole cluster in turn. The
// treatment arm is the full hmpictld stack: priority + aging queues,
// residual-capacity group selection (leased machines re-priced at
// base/(1+leases) instead of excluded), conservative backfill behind the
// queue head's reservation, and checkpoint-aware preemption. Both arms
// execute every job as a real simulated HMPI run, so service times are
// measured, not modeled.
//
// Acceptance bars (DESIGN.md A13, enforced here — non-zero exit on miss):
//   * makespan(FIFO) / makespan(priority+backfill) >= 1.3
//   * utilization(priority+backfill) strictly > utilization(FIFO)
//   * zero correctness divergence: every job's result token equals its
//     uncontended reference run (preempt -> requeue -> re-dispatch included).
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hnoc/cluster.hpp"
#include "sched/scheduler.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sinks.hpp"

namespace {

using namespace hmpi;

struct ArmResult {
  sched::SchedStats stats;
  long long divergences = 0;
};

ArmResult run_arm(const hnoc::Cluster& cluster,
                  const std::vector<sched::JobSpec>& trace,
                  const std::vector<std::uint64_t>& reference,
                  sched::SchedPolicy policy) {
  sched::SchedConfig config;
  config.policy = policy;
  config.slots_per_machine = 2;   // normalised to 1 for kFifo
  config.preempt_priority_gap = 2;  // only the lowest tier yields to the
                                    // highest: preemption stays surgical
  config.execute = true;
  sched::Scheduler scheduler(cluster, config);

  std::vector<sched::JobId> ids;
  ids.reserve(trace.size());
  for (const sched::JobSpec& spec : trace) ids.push_back(scheduler.submit(spec));
  scheduler.run_until_idle();

  ArmResult out;
  out.stats = scheduler.stats();
  for (std::size_t j = 0; j < ids.size(); ++j) {
    const auto info = scheduler.poll(ids[j]);
    if (!info || info->state != sched::JobState::kCompleted ||
        info->result != reference[j]) {
      ++out.divergences;
    }
  }
  return out;
}

}  // namespace

int main() {
  const hnoc::Cluster cluster = bench::a13_cluster();
  const std::vector<sched::JobSpec> trace =
      bench::make_arrival_trace(bench::a13_trace_options());

  // The correctness oracle: each job run alone on an idle cluster. The body
  // token is placement-independent by construction, so a contended run that
  // was preempted, requeued, and re-dispatched must reproduce it exactly.
  std::vector<std::uint64_t> reference;
  reference.reserve(trace.size());
  for (const sched::JobSpec& spec : trace) {
    reference.push_back(sched::Scheduler::uncontended_run(cluster, spec));
  }

  const ArmResult fifo =
      run_arm(cluster, trace, reference, sched::SchedPolicy::kFifo);
  const ArmResult prio =
      run_arm(cluster, trace, reference, sched::SchedPolicy::kPriority);

  support::Table table(
      "Ablation A13: hmpictld vs FIFO/exclusive on a " +
          std::to_string(trace.size()) + "-job arrival trace (12 machines)",
      {"policy", "makespan_s", "utilization", "mean_wait_s",
       "mean_turnaround_s", "throughput_jobs_s", "preempted", "backfilled",
       "divergences"});
  const auto add_arm = [&table](const char* name, const ArmResult& arm) {
    table.add_row({name, support::Table::num(arm.stats.makespan_s),
                   support::Table::num(arm.stats.utilization, 4),
                   support::Table::num(arm.stats.mean_wait_s),
                   support::Table::num(arm.stats.mean_turnaround_s),
                   support::Table::num(arm.stats.throughput_jobs_per_s, 4),
                   std::to_string(arm.stats.preempted),
                   std::to_string(arm.stats.backfilled),
                   std::to_string(arm.divergences)});
  };
  add_arm("fifo-exclusive", fifo);
  add_arm("priority+backfill", prio);

  const double speedup = prio.stats.makespan_s > 0.0
                             ? fifo.stats.makespan_s / prio.stats.makespan_s
                             : 0.0;
  support::Table verdict("A13 acceptance",
                         {"criterion", "value", "bar", "pass"});
  verdict.add_row({"makespan_speedup", support::Table::num(speedup, 3),
                   ">= 1.3", speedup >= 1.3 ? "yes" : "NO"});
  verdict.add_row(
      {"utilization_gain",
       support::Table::num(prio.stats.utilization - fifo.stats.utilization, 4),
       "> 0", prio.stats.utilization > fifo.stats.utilization ? "yes" : "NO"});
  verdict.add_row({"divergences",
                   std::to_string(fifo.divergences + prio.divergences), "== 0",
                   fifo.divergences + prio.divergences == 0 ? "yes" : "NO"});

  bench::emit(table);
  bench::emit(verdict);
  bench::write_bench_json("sched", {table, verdict});

  // This bench drives the Scheduler directly (no Runtime), so it honours the
  // metrics sink itself — CI checks the dump against the metric catalogue.
  if (const telemetry::Sinks sinks = telemetry::Sinks::from_env();
      !sinks.metrics_json.empty()) {
    std::ofstream os(sinks.metrics_json);
    telemetry::metrics().write_json(os);
  }

  if (speedup < 1.3 || prio.stats.utilization <= fifo.stats.utilization ||
      fifo.divergences + prio.divergences != 0) {
    std::fprintf(stderr, "A13 acceptance FAILED (speedup %.3f, util %+0.4f, "
                         "divergences %lld)\n",
                 speedup, prio.stats.utilization - fifo.stats.utilization,
                 fifo.divergences + prio.divergences);
    return 1;
  }
  return 0;
}
