// fig9_em3d: the paper's headline path. One op is apps::em3d::run_hmpi on
// the Fig 9 testbed — the x16 decomposition (72,080 nodes), 8 iterations,
// k = 100, virtual-only work, library-default engine and RuntimeConfig.
// The simulator dominates the op; selection is about a millisecond of it.
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "apps/em3d/app.hpp"
#include "apps/em3d/parallel.hpp"
#include "hmpi/runtime.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace hmpi::perf {
namespace {

using apps::em3d::DriverResult;
using apps::em3d::GeneratorConfig;
using apps::em3d::System;
using apps::em3d::WorkMode;

constexpr int kIterations = 8;
constexpr int kBenchNodes = 100;  // Recon benchmark size and the model's k
constexpr int kWarmup = 5;
constexpr int kMinOps = kP90MinOps;

/// The Fig 9 decomposition at scale 16; the seed offsets the figure's
/// generator seed (2003), so the default seed is the figure's system.
GeneratorConfig decomposition(std::uint64_t seed) {
  GeneratorConfig config;
  const int base[9] = {400, 500, 700, 550, 650, 600, 800, 100, 205};
  for (int b : base) config.nodes_per_subbody.push_back(b * 16);
  config.degree = 5;
  config.remote_fraction = 0.05;
  config.seed = 2003 + seed;
  return config;
}

std::string fingerprint(const hnoc::Cluster& cluster, const System& system) {
  Fingerprint fp;
  fp.add(cluster);
  for (const apps::em3d::Subbody& body : system.bodies) {
    for (const auto* deps : {&body.e_deps, &body.h_deps}) {
      fp.add(static_cast<std::uint64_t>(deps->size()));
      for (const auto& node : *deps) {
        for (const apps::em3d::NodeRef& ref : node) {
          fp.add(static_cast<std::uint64_t>(ref.subbody));
          fp.add(static_cast<std::uint64_t>(ref.index));
        }
      }
    }
    for (const auto* weights : {&body.e_weights, &body.h_weights}) {
      for (const auto& node : *weights) {
        for (double w : node) fp.add(w);
      }
    }
  }
  fp.add(apps::em3d::model_parameters(system, kBenchNodes));
  return fp.hex();
}

/// run_hmpi's Fig 5 lifecycle, call for call, with a span around each
/// public call the host makes; then the layer probes on the same inputs.
/// Returns the algorithm time, which must equal run_hmpi's.
double traced_op(Tracer& tracer, long long op, const hnoc::Cluster& cluster,
                 const GeneratorConfig& config, LayerLog& log) {
  // Only the host rank writes these; World::run joins every rank first.
  double algorithm_time = 0.0;
  std::vector<double> speeds;
  std::vector<pmdl::ParamValue> params;

  const double messages = messages_sent_total();
  const double dispatches = counter_value("sim.dispatches");
  const int op_span = tracer.begin("op", op);
  int world = -1;
  {
    // Scoped like run_hmpi's locals, so their destruction is inside the op.
    int span = tracer.begin("em3d.generate", op, op_span);
    std::optional<System> generated = apps::em3d::generate(config);
    const System& system = *generated;
    tracer.end(span);
    span = tracer.begin("pmdl.parse", op, op_span);
    const pmdl::Model model = apps::em3d::performance_model();
    tracer.end(span);
    params = apps::em3d::model_parameters(system, kBenchNodes);

    world = tracer.begin("mpsim.run", op, op_span);
    mp::World::run_one_per_processor(cluster, [&](mp::Proc& proc) {
      const bool host = proc.rank() == 0;
      const auto open = [&](const char* name) {
        return host ? tracer.begin(name, op, world) : -1;
      };
      int s = open("hmpi.init");
      Runtime rt(proc);
      tracer.end(s);
      s = open("hmpi.recon");
      rt.recon([&](mp::Proc& q) {
        apps::em3d::recon_benchmark(q, system, kBenchNodes);
      });
      tracer.end(s);
      s = open("hmpi.group_create");
      auto group = rt.group_create(model, params);
      tracer.end(s);
      if (host) {
        tracer.add("mapper.search", op, s,
                   rt.last_search_stats().wall_seconds * 1e3);
      }
      if (group) {
        s = open("hmpi.app");
        const apps::em3d::ParallelResult parallel = apps::em3d::run_parallel(
            group->comm(), system, kIterations, WorkMode::kVirtualOnly);
        tracer.end(s);
        if (host) {
          s = open("hmpi.observe");
          rt.group_observed(*group, parallel.algorithm_time, kIterations);
          tracer.end(s);
          algorithm_time = parallel.algorithm_time;
          speeds = rt.processor_speeds();
          log.searches.push_back(rt.last_search_stats());
          log.plans_compiled =
              static_cast<double>(rt.estimator_stats().plans_compiled);
        }
        s = open("hmpi.group_free");
        rt.group_free(*group);
        tracer.end(s);
      }
      s = open("hmpi.finalize");
      rt.finalize();
      tracer.end(s);
    });
    tracer.end(world);
    // run_hmpi frees the 72k-node system on return, inside the op.
    span = tracer.begin("em3d.free", op, op_span);
    generated.reset();
    tracer.end(span);
  }
  tracer.end(op_span);
  log.traced_ms.push_back(tracer.duration(op_span));
  log.world_ms.push_back(tracer.duration(world));
  log.messages += messages_sent_total() - messages;
  log.dispatches += counter_value("sim.dispatches") - dispatches;

  // Layer probes, after the op's span closed.
  hnoc::NetworkModel network(cluster);
  set_speeds(network, speeds);
  probe_layers(tracer, op, apps::em3d::performance_model(), params,
               *map::make_default_mapper(), network, 1, config.seed + op);
  return algorithm_time;
}

}  // namespace

Result run_fig9_em3d(const Options& options) {
  Result result;
  result.workload = "fig9_em3d";
  result.options = options;

  // Setup: input generation, fingerprint, the rank-order MPI baseline and
  // the warm-up ops.
  const hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  const GeneratorConfig config = decomposition(options.seed);
  result.input_hash = fingerprint(cluster, apps::em3d::generate(config));
  result.check_reference_hash();
  const double mpi_time =
      apps::em3d::run_mpi(cluster, config, kIterations, WorkMode::kVirtualOnly)
          .algorithm_time;

  const auto hmpi_op = [&] {
    return apps::em3d::run_hmpi(cluster, config, kIterations,
                                WorkMode::kVirtualOnly, kBenchNodes);
  };
  DriverResult first;
  for (int i = 0; i < kWarmup; ++i) first = hmpi_op();
  const double rss_mb = peak_rss_mb();
  const double setup_s = seconds_since(options.process_start);

  Tracer tracer(options.traced);
  LayerLog log;
  log.max_world_procs = cluster.size();
  log.rss_mb = rss_mb;
  std::vector<double> op_ms;
  const double timed_s =
      timed_loop(result, options.seconds, kMinOps, op_ms, [&](long long i) {
        if (options.traced && i % 2 == 1) {
          const bool ok =
              traced_op(tracer, i, cluster, config, log) == first.algorithm_time;
          if (!ok) {
            result.errors.push_back("op " + std::to_string(i) +
                                    ": traced lifecycle diverged from run_hmpi");
          }
          return ok;
        }
        const DriverResult r = hmpi_op();
        const bool ok = r.algorithm_time == first.algorithm_time &&
                        r.predicted_time == first.predicted_time &&
                        r.placement == first.placement;
        if (!ok) {
          result.errors.push_back("op " + std::to_string(i) +
                                  ": HMPI run differs from the first run");
        }
        return ok;
      });

  const double vtime = first.algorithm_time;
  const double speedup = mpi_time / vtime;
  const double rel_err = std::fabs(first.predicted_time - vtime) / vtime;
  result.check_reference("vtime_s", vtime);
  result.check_reference("speedup_vs_mpi", speedup);
  result.check_reference("timeof_rel_err", rel_err);

  if (options.traced) {
    for (std::size_t i = 0; i < op_ms.size(); i += 2) {
      log.untraced_ms.push_back(op_ms[i]);
    }
    add_layer_metrics(result, tracer, log);
    result.spans = tracer.spans();
  } else {
    add_end_to_end(result, setup_s, rss_mb, op_ms, timed_s);
    result.metric("vtime_s", vtime, "virtual_s");
    result.metric("speedup_vs_mpi", speedup, "x");
    result.metric("timeof_rel_err", rel_err, "ratio");
  }
  return result;
}

}  // namespace hmpi::perf
