// sched_a13: the A13 scheduler trace. One op is one Scheduler::step over a
// 2000-job arrival trace on A13's 12 machines in three speed tiers, with
// every dispatched job executed as a simulated run on the library-default
// engine. Each lease or release writes the NetworkModel between reads, so
// this is the one workload that cold-misses the estimate cache; it also runs
// thousands of tiny worlds. Arrivals are open-loop in virtual time and the
// host drains them as fast as it can; one drain is about 4000 steps.
#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "probes.hpp"
#include "sched/scheduler.hpp"
#include "workloads.hpp"

namespace hmpi::perf {
namespace {

/// Jobs whose instance goes through the estimator and mapper probes.
constexpr std::size_t kProbedJobs = 16;

/// A13's cluster: twelve machines in three speed tiers on a 1 ms / 2 MB/s
/// LAN, so transfers cost enough for co-tenants to overlap them.
hnoc::Cluster make_cluster() {
  hnoc::ClusterBuilder b;
  for (int i = 0; i < 12; ++i) {
    const double speed = i < 4 ? 100.0 : (i < 8 ? 80.0 : 60.0);
    // Appended, not "m" + ...: GCC 12 at -O3 warns falsely (-Wrestrict).
    std::string name = "m";
    name += std::to_string(i);
    b.add(std::move(name), speed);
  }
  b.network(1e-3, 2e6);
  return b.build();
}

bench::ArrivalTraceOptions trace_options(std::uint64_t seed) {
  bench::ArrivalTraceOptions options;
  options.jobs = 2000;
  options.seed = 42 + seed;
  options.max_width = 10;
  options.ring_bytes = 1 << 20;
  options.volume_scale = 15.0;
  options.checkpoint_frac = 0.7;
  return options;
}

sched::SchedConfig sched_config() {
  sched::SchedConfig config;
  config.policy = sched::SchedPolicy::kPriority;
  config.slots_per_machine = 2;
  config.preempt_priority_gap = 2;
  config.execute = true;
  return config;
}

std::string fingerprint(const hnoc::Cluster& cluster,
                        const std::vector<sched::JobSpec>& trace) {
  Fingerprint fp;
  fp.add(cluster);
  for (const sched::JobSpec& spec : trace) {
    fp.add(spec.name);
    fp.add(spec.params);
    fp.add(static_cast<std::uint64_t>(spec.priority));
    fp.add(spec.arrival_s);
    fp.add(static_cast<std::uint64_t>(spec.checkpoint_bytes));
  }
  return fp.hex();
}

}  // namespace

Result run_sched_a13(const Options& options) {
  Result result;
  result.workload = "sched_a13";
  result.options = options;
  Tracer tracer(options.traced);
  LayerLog log;

  // Setup: the trace, its fingerprint, its uncontended reference results
  // and the warm-up drain.
  const hnoc::Cluster cluster = make_cluster();
  const std::vector<sched::JobSpec> trace =
      bench::make_arrival_trace(trace_options(options.seed));
  result.input_hash = fingerprint(cluster, trace);
  result.check_reference_hash();
  const double messages = messages_sent_total();
  std::vector<std::uint64_t> reference;
  reference.reserve(trace.size());
  for (const sched::JobSpec& spec : trace) {
    const int s = tracer.begin("mpsim.small_world", -1);
    reference.push_back(sched::Scheduler::uncontended_run(cluster, spec));
    tracer.end(s);
    log.world_ms.push_back(tracer.duration(s));
    const auto& volumes = std::get<std::vector<long long>>(spec.params[0]);
    log.max_world_procs =
        std::max(log.max_world_procs, static_cast<int>(volumes.size()));
  }
  log.messages += messages_sent_total() - messages;

  // Drains: each loads the trace into a fresh scheduler, untimed, then steps
  // it until no events remain; every step is one timed op. Drain -1 warms
  // up (a traced run records its submits), and traced runs alternate
  // untraced and traced drains.
  std::vector<double> op_ms;
  std::vector<double> makespans;
  double setup_s = 0.0;
  double timed_s = 0.0;
  double rss_mb = 0.0;
  Clock::time_point loop_start = Clock::now();
  for (long long drain = -1;
       drain < 2 || seconds_since(loop_start) < options.seconds; ++drain) {
    const bool warmup = drain < 0;
    const bool traced = options.traced && drain % 2 == 1;
    sched::Scheduler scheduler(cluster, sched_config());
    std::vector<sched::JobId> ids;
    ids.reserve(trace.size());
    for (const sched::JobSpec& spec : trace) {
      const int s = warmup ? tracer.begin("sched.submit", -1) : -1;
      ids.push_back(scheduler.submit(spec));
      tracer.end(s);
    }

    const double dispatches = counter_value("sim.dispatches");
    const Clock::time_point drain_start = Clock::now();
    long long dispatched = 0;
    for (bool more = true; more;) {
      if (!warmup) ++result.attempted;
      const Clock::time_point t0 = Clock::now();
      try {
        more = scheduler.step();
      } catch (const std::exception& e) {
        result.check(false, "drain " + std::to_string(drain) + ": " + e.what());
        more = false;
      }
      const double ms = ms_between(t0, Clock::now());
      if (warmup) continue;
      if (!traced) {
        op_ms.push_back(ms);
        if (options.traced) log.untraced_ms.push_back(ms);
        continue;
      }
      log.traced_ms.push_back(ms);
      const long long now_dispatched = scheduler.stats().dispatched;
      tracer.add(now_dispatched > dispatched ? "sched.dispatch_step"
                                             : "sched.other_step",
                 drain, -1, ms);
      dispatched = now_dispatched;
    }
    if (!warmup) timed_s += seconds_since(drain_start);

    // Every job must complete with its uncontended reference result.
    long long divergences = 0;
    for (std::size_t j = 0; j < ids.size(); ++j) {
      const auto info = scheduler.poll(ids[j]);
      if (!info || info->state != sched::JobState::kCompleted ||
          info->result != reference[j]) {
        ++divergences;
      }
    }
    result.check(divergences == 0,
                 "drain " + std::to_string(drain) + ": " +
                     std::to_string(divergences) + " result divergences");
    const sched::SchedStats stats = scheduler.stats();
    makespans.push_back(stats.makespan_s);
    if (warmup) {
      rss_mb = peak_rss_mb();
      setup_s = seconds_since(options.process_start);
      loop_start = Clock::now();
    }
    if (traced) {
      log.dispatches += counter_value("sim.dispatches") - dispatches;
      log.sched_dispatched = static_cast<double>(stats.dispatched);
      log.sched_preempted = static_cast<double>(stats.preempted);
      log.sched_backfilled = static_cast<double>(stats.backfilled);
    }
  }
  // The thread engine races co-tenants for shared links, so the makespan
  // moves slightly between drains (README.md, findings).
  const double vtime = median(makespans);
  result.check_reference("vtime_s", vtime, 0.03);

  if (options.traced) {
    // Estimator and mapper probes on the first jobs' instances over the
    // idle cluster, with the scheduler's greedy placement mapper.
    const hnoc::NetworkModel network(cluster);
    const map::GreedyMapper greedy;
    for (std::size_t j = 0; j < kProbedJobs && j < trace.size(); ++j) {
      const auto op = static_cast<long long>(j);
      probe_layers(tracer, op, *trace[j].model, trace[j].params, greedy,
                   network, 1, options.seed + j);
    }
    log.rss_mb = rss_mb;
    add_layer_metrics(result, tracer, log);
    result.spans = tracer.spans();
  } else {
    add_end_to_end(result, setup_s, rss_mb, op_ms, timed_s);
    result.metric("vtime_s", vtime, "virtual_s");
  }
  return result;
}

}  // namespace hmpi::perf
