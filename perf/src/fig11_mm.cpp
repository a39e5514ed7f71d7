// fig11_mm: the paper-scale selection path. One op is
// apps::matmul::run_hmpi on the Fig 11 testbed with m = 3, r = 9, n = 36
// and l = 0, so the host runs the Fig 8 Timeof sweep over 10 generalised
// block sizes before Group_create. Each Timeof instantiates a fresh
// ParallelAxB model (about 4.7k plan ops) and runs a swap-refine search;
// the simulated 9-process multiplication is small by comparison.
#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "apps/matmul/app.hpp"
#include "apps/matmul/dense.hpp"
#include "hmpi/runtime.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace hmpi::perf {
namespace {

using apps::matmul::MmDriverConfig;
using apps::matmul::MmDriverResult;
using apps::matmul::Partition;

constexpr int kWarmup = 5;
constexpr int kMinOps = kP90MinOps;

/// The figure's configuration at n = 36. In virtual-only mode the seed
/// (matrix material) does not change the run, so every seed gives the same
/// inputs apart from this field.
MmDriverConfig driver_config(std::uint64_t seed) {
  MmDriverConfig config;
  config.m = 3;
  config.r = 9;
  config.n = 36;
  config.l = 0;
  config.mode = apps::matmul::WorkMode::kVirtualOnly;
  config.seed = 2003 + seed;
  return config;
}

/// The generalised block sizes run_hmpi sweeps when l = 0.
std::vector<int> l_candidates(int m, int n) {
  std::vector<int> ls;
  for (int l = m; l <= n; l = std::max(l + 1, l + (n - m) / 8)) ls.push_back(l);
  if (ls.empty() || ls.back() != n) ls.push_back(n);
  return ls;
}

/// The Recon benchmark of run_hmpi: one r x r block multiply-accumulate.
void rmxm_benchmark(mp::Proc& proc, int r) {
  std::vector<double> a(static_cast<std::size_t>(r) * static_cast<std::size_t>(r),
                        1.0);
  std::vector<double> b = a;
  std::vector<double> c(a.size(), 0.0);
  apps::matmul::block_multiply_add(c, a, b, r);
  proc.compute(apps::matmul::block_update_units(r));
}

struct TracedResult {
  double algorithm_time = 0.0;
  int chosen_l = 0;
  bool estimate_matches_timeof = false;
};

/// run_hmpi's Fig 8 lifecycle, call for call, with a span around each
/// public call the host makes; then the layer probes on the parameters
/// every Timeof saw.
TracedResult traced_op(Tracer& tracer, long long op,
                       const hnoc::Cluster& cluster,
                       const MmDriverConfig& config, LayerLog& log) {
  const int m = config.m;
  // Only the host rank writes these; World::run joins every rank first.
  TracedResult out;
  std::vector<std::vector<pmdl::ParamValue>> swept;
  std::vector<double> speeds;

  const double messages = messages_sent_total();
  const double dispatches = counter_value("sim.dispatches");
  const int op_span = tracer.begin("op", op);
  int world = -1;
  {
    // Scoped like run_hmpi's locals, so their destruction is inside the op.
    int span = tracer.begin("pmdl.parse", op, op_span);
    const pmdl::Model model = apps::matmul::performance_model();
    tracer.end(span);

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
      rt.recon([&](mp::Proc& q) { rmxm_benchmark(q, config.r); });
      tracer.end(s);

      int chosen_l = config.l;
      double best_time = 0.0;
      std::vector<double> grid_speeds;
      std::vector<pmdl::ParamValue> params;
      if (host) {
        std::vector<double> all = rt.processor_speeds();
        const double host_speed =
            all.at(static_cast<std::size_t>(proc.processor()));
        all.erase(all.begin() + proc.processor());
        std::sort(all.begin(), all.end(), std::greater<double>());
        grid_speeds.push_back(host_speed);
        grid_speeds.insert(grid_speeds.end(), all.begin(),
                           all.begin() + (m * m - 1));
        for (int l : l_candidates(m, config.n)) {
          std::vector<pmdl::ParamValue> candidate = apps::matmul::model_parameters(
              m, config.r, config.n, Partition(m, l, grid_speeds));
          s = open("hmpi.timeof");
          const double t = rt.timeof(model, candidate);
          tracer.end(s);
          tracer.add("mapper.search", op, s,
                     rt.last_search_stats().wall_seconds * 1e3);
          log.searches.push_back(rt.last_search_stats());
          if (chosen_l <= 0 || t < best_time) {
            chosen_l = l;
            best_time = t;
          }
          swept.push_back(std::move(candidate));
        }
        params = apps::matmul::model_parameters(
            m, config.r, config.n, Partition(m, chosen_l, grid_speeds));
      }

      s = open("hmpi.group_create");
      auto group = rt.group_create(model, params);
      tracer.end(s);
      if (host) {
        tracer.add("mapper.search", op, s,
                   rt.last_search_stats().wall_seconds * 1e3);
        log.searches.push_back(rt.last_search_stats());
      }
      if (group) {
        s = open("hmpi.app");
        std::vector<long long> meta{chosen_l};
        group->comm().bcast_vector(meta, group->parent_rank());
        chosen_l = static_cast<int>(meta[0]);
        group->comm().bcast_vector(grid_speeds, group->parent_rank());
        apps::matmul::MmConfig mm;
        mm.m = m;
        mm.r = config.r;
        mm.n = config.n;
        mm.partition = Partition(m, chosen_l, grid_speeds);
        mm.mode = config.mode;
        mm.seed = config.seed;
        const apps::matmul::MmResult result =
            apps::matmul::run_distributed(group->comm(), mm);
        tracer.end(s);

        if (host) {
          s = open("hmpi.observe");
          rt.group_observed(*group, result.algorithm_time);
          const std::size_t block_bytes = static_cast<std::size_t>(config.r) *
                                          static_cast<std::size_t>(config.r) *
                                          sizeof(double);
          rt.coll_selection(coll::CollOp::kBcast, block_bytes);
          rt.coll_selection(coll::CollOp::kAllreduce, sizeof(double));
          tracer.end(s);
          out.algorithm_time = result.algorithm_time;
          out.chosen_l = chosen_l;
          out.estimate_matches_timeof = group->estimated_time() == best_time;
          speeds = rt.processor_speeds();
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
  }
  tracer.end(op_span);
  log.traced_ms.push_back(tracer.duration(op_span));
  log.world_ms.push_back(tracer.duration(world));
  log.messages += messages_sent_total() - messages;
  log.dispatches += counter_value("sim.dispatches") - dispatches;

  // Layer probes, after the op's span closed: every Timeof's parameters
  // through pmdl and the plan compiler, the chosen block size through all
  // four probes.
  hnoc::NetworkModel network(cluster);
  set_speeds(network, speeds);
  const pmdl::Model model = apps::matmul::performance_model();
  const std::vector<int> ls = l_candidates(m, config.n);
  for (std::size_t i = 0; i < swept.size(); ++i) {
    if (ls[i] == out.chosen_l) {
      probe_layers(tracer, op, model, swept[i], *map::make_default_mapper(),
                   network, 1, config.seed + op);
    } else {
      probe_compile(tracer, op, model, swept[i]);
    }
  }
  return out;
}

}  // namespace

Result run_fig11_mm(const Options& options) {
  Result result;
  result.workload = "fig11_mm";
  result.options = options;

  // Setup: fingerprint, the rank-order MPI baseline and the warm-up ops.
  const hnoc::Cluster cluster = hnoc::testbeds::paper_mm_network();
  const MmDriverConfig config = driver_config(options.seed);
  // The rank-order baseline of Figure 11 uses r = l = 9.
  MmDriverConfig mpi_config = config;
  mpi_config.l = 9;
  Fingerprint fp;
  fp.add(cluster);
  for (int v : {config.m, config.r, config.n, config.l, mpi_config.l}) {
    fp.add(static_cast<std::uint64_t>(v));
  }
  fp.add(static_cast<std::uint64_t>(config.seed));
  for (int l : l_candidates(config.m, config.n)) {
    fp.add(static_cast<std::uint64_t>(l));
  }
  result.input_hash = fp.hex();
  result.check_reference_hash();
  const double mpi_time =
      apps::matmul::run_mpi(cluster, mpi_config).algorithm_time;

  MmDriverResult first;
  for (int i = 0; i < kWarmup; ++i) first = apps::matmul::run_hmpi(cluster, config);
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
          const TracedResult t = traced_op(tracer, i, cluster, config, log);
          const bool ok = t.algorithm_time == first.algorithm_time &&
                          t.chosen_l == first.chosen_l &&
                          t.estimate_matches_timeof;
          if (!ok) {
            result.errors.push_back(
                "op " + std::to_string(i) +
                ": traced lifecycle diverged from run_hmpi, or Group_create's "
                "estimate differs from Timeof's");
          }
          return ok;
        }
        const MmDriverResult r = apps::matmul::run_hmpi(cluster, config);
        const bool ok = r.algorithm_time == first.algorithm_time &&
                        r.predicted_time == first.predicted_time &&
                        r.chosen_l == first.chosen_l &&
                        r.grid_placement == first.grid_placement;
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
