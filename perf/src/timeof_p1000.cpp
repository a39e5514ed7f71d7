// timeof_p1000: selection at scale. One op is one Runtime::timeof on a
// 1000-process world over large_cluster(1000), one process per machine,
// with the portfolio mapper and 4 search threads. Every timed call prices a
// distinct width-9 scheduler-job parameter set, so the search, the batch
// estimator and the estimate cache do almost all of the op. Init and Recon
// come before the loop; one group_create, group_free and finalize after it.
#include <memory>
#include <optional>
#include <vector>

#include "bench_util.hpp"
#include "hmpi/runtime.hpp"
#include "probes.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace hmpi::perf {
namespace {

constexpr int kMachines = 1000;
constexpr std::uint64_t kClusterSeed = 0x413130;  // the A10 testbed
constexpr int kWidth = 9;
constexpr long long kRingBytes = 64 * 1024;
constexpr int kParamSets = 1024;
constexpr int kWarmup = 3;
/// vtime_s sums the predictions of the first kMinOps timed calls, so every
/// run makes at least that many. The kP90MinOps calls op_p90_ms needs would
/// take the run past 30 s (README.md, design choices).
constexpr int kMinOps = 16;
constexpr double kReconUnits = 10.0;
constexpr int kSearchThreads = 4;

using ParamSet = std::vector<pmdl::ParamValue>;

std::vector<ParamSet> make_param_sets(std::uint64_t seed) {
  support::Rng rng(0x54494d454f46ULL + seed);
  std::vector<ParamSet> sets;
  sets.reserve(kParamSets);
  for (int i = 0; i < kParamSets; ++i) {
    std::vector<long long> volumes(kWidth);
    for (long long& v : volumes) v = rng.next_in(50, 500);
    sets.push_back({pmdl::array(std::move(volumes)), pmdl::scalar(kRingBytes)});
  }
  return sets;
}

/// Parameters of timed call `i` (warm-up calls use the first sets).
const ParamSet& params_of(const std::vector<ParamSet>& sets, long long i) {
  return sets[static_cast<std::size_t>((kWarmup + i) % kParamSets)];
}

RuntimeConfig runtime_config() {
  RuntimeConfig config;
  config.mapper = std::make_shared<map::PortfolioMapper>();
  config.search_threads = kSearchThreads;
  return config;
}

/// State the host's timed loop shares with the run.
struct Loop {
  std::vector<double> op_ms;
  double setup_s = 0.0;
  double timed_s = 0.0;
  double vtime = 0.0;   ///< Sum of the first kMinOps predictions.
  double last = 0.0;    ///< The last call's prediction.
  double rss_mb = 0.0;  ///< Peak RSS after warm-up.
};

/// The host's warm-up and timed Timeof calls. Traced runs alternate
/// untraced and traced calls and probe the layers after each traced one.
void timed_timeofs(Runtime& rt, const pmdl::Model& model,
                   const std::vector<ParamSet>& sets,
                   const hnoc::Cluster& cluster, const Options& options,
                   Tracer& tracer, Result& result, LayerLog& log, Loop& loop) {
  for (int i = 0; i < kWarmup; ++i) {
    rt.timeof(model, sets[static_cast<std::size_t>(i)]);
  }
  loop.rss_mb = peak_rss_mb();
  loop.setup_s = seconds_since(options.process_start);

  hnoc::NetworkModel network(cluster);
  set_speeds(network, rt.processor_speeds());
  const map::PortfolioMapper probe_mapper;
  loop.timed_s = timed_loop(
      result, options.seconds, kMinOps, loop.op_ms, [&](long long i) {
        const ParamSet& params = params_of(sets, i);
        if (options.traced && i % 2 == 1) {
          const int op = tracer.begin("op", i);
          const int call = tracer.begin("hmpi.timeof", i, op);
          loop.last = rt.timeof(model, params);
          tracer.end(call);
          tracer.end(op);
          log.traced_ms.push_back(tracer.duration(op));
          const map::SearchStats& stats = rt.last_search_stats();
          tracer.add("mapper.search", i, call, stats.wall_seconds * 1e3);
          log.searches.push_back(stats);
          probe_layers(tracer, i, model, params, probe_mapper, network,
                       kSearchThreads,
                       options.seed + static_cast<std::uint64_t>(i));
        } else {
          loop.last = rt.timeof(model, params);
        }
        if (i < kMinOps) loop.vtime += loop.last;
        return loop.last > 0.0;
      });
  log.plans_compiled = static_cast<double>(rt.estimator_stats().plans_compiled) /
                       static_cast<double>(loop.op_ms.size() + kWarmup);
}

}  // namespace

Result run_timeof_p1000(const Options& options) {
  use_event_engine();
  Result result;
  result.workload = "timeof_p1000";
  result.options = options;

  // Setup: the inputs, their fingerprint, Init, Recon and the warm-up calls
  // (timed_timeofs reads setup_s).
  const std::shared_ptr<const pmdl::Model> model = bench::sched_job_model();
  const hnoc::Cluster cluster =
      bench::make_large_cluster(kMachines, kClusterSeed);
  const std::vector<ParamSet> sets = make_param_sets(options.seed);
  Fingerprint fp;
  fp.add(cluster);
  for (const ParamSet& set : sets) fp.add(set);
  result.input_hash = fp.hex();
  result.check_reference_hash();

  Tracer tracer(options.traced);
  LayerLog log;
  log.max_world_procs = kMachines;
  Loop loop;

  // One world runs Init, Recon and the timed loop. A traced run first runs
  // a world through Init and Recon alone, whose host time is mpsim.run_ms.
  for (bool timed : {false, true}) {
    if (!timed && !options.traced) continue;
    const double messages = messages_sent_total();
    const double dispatches = counter_value("sim.dispatches");
    const int world = timed ? -1 : tracer.begin("mpsim.run", -1);
    mp::World::run_one_per_processor(cluster, [&](mp::Proc& proc) {
      const bool host = proc.rank() == 0;
      const auto open = [&](const char* name) {
        return host ? tracer.begin(name, -1) : -1;
      };
      int s = open("hmpi.init");
      Runtime rt(proc, runtime_config());
      tracer.end(s);
      s = open("hmpi.recon");
      rt.recon([](mp::Proc& q) { q.compute(kReconUnits); });
      tracer.end(s);

      std::optional<Group> group;
      if (timed && host) {
        timed_timeofs(rt, *model, sets, cluster, options, tracer, result, log,
                      loop);
        // Group_create on the last timed parameters must select the group
        // whose estimate Timeof reported.
        s = open("hmpi.group_create");
        const auto last = static_cast<long long>(loop.op_ms.size()) - 1;
        group = rt.group_create(*model, params_of(sets, last));
        tracer.end(s);
        result.check(group && group->estimated_time() == loop.last,
                     "Group_create's estimate differs from Timeof's");
      } else if (timed) {
        group = rt.group_create(*model, ParamSet{});
      }
      if (group) {
        s = open("hmpi.group_free");
        rt.group_free(*group);
        tracer.end(s);
      }
      s = open("hmpi.finalize");
      rt.finalize();
      tracer.end(s);
    });
    if (!timed) {
      tracer.end(world);
      log.world_ms.push_back(tracer.duration(world));
      log.messages += messages_sent_total() - messages;
      log.dispatches += counter_value("sim.dispatches") - dispatches;
    }
  }
  result.check_reference("vtime_s", loop.vtime);

  if (options.traced) {
    for (std::size_t i = 0; i < loop.op_ms.size(); i += 2) {
      log.untraced_ms.push_back(loop.op_ms[i]);
    }
    log.rss_mb = loop.rss_mb;
    add_layer_metrics(result, tracer, log);
    result.spans = tracer.spans();
  } else {
    add_end_to_end(result, loop.setup_s, loop.rss_mb, loop.op_ms,
                   loop.timed_s);
    result.metric("vtime_s", loop.vtime, "virtual_s");
  }
  return result;
}

}  // namespace hmpi::perf
