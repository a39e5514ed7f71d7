// Ablation A9 (DESIGN.md): the estimator kernel against the reference
// scheme interpreter (docs/estimator.md). Two tables on the paper's
// 9-machine EM3D testbed:
//   * A9a — Timeof microbench: pricing the same mappings through the
//     reference interpreter vs Plan::evaluate (a count-1 call into the
//     batch kernel). Enforces the >= 5x acceptance bar and bit-identical
//     values per mapping.
//   * A9b — end-to-end Group_create-shaped selection (portfolio mapper, the
//     runtime's plan cache) across {1, 2, 8} threads x estimate cache
//     {on, off}. Enforces bit-identical selections across the matrix, and
//     that each estimate equals the reference interpreter's price of the
//     chosen mapping bit for bit. It prints only counts that are functions
//     of the inputs: `evaluations` in every cell, `compiled_evals` only at 1
//     thread or with the cache off. With the cache on at 2 or 8 threads,
//     two racing portfolio members can both miss the same key and both
//     price it, so that count varies from run to run.
// Exit status 1 (FATAL on stderr) on any acceptance-bar violation.
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "apps/em3d/app.hpp"
#include "bench_util.hpp"
#include "estimator/estimate_cache.hpp"
#include "estimator/plan.hpp"
#include "hnoc/cluster.hpp"
#include "mapper/mapper.hpp"
#include "pmdl/model.hpp"
#include "reference/estimator.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace hmpi;

double wall_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// The Figure-4 EM3D instance over the irregular 9-subbody object (the same
/// workload ablation_mapper uses).
pmdl::ModelInstance em3d_instance() {
  apps::em3d::GeneratorConfig config;
  config.nodes_per_subbody = {4000, 5000, 7000, 5500, 6500, 6000, 8000, 1000,
                              2050};
  config.degree = 5;
  config.remote_fraction = 0.05;
  config.seed = 17;
  const apps::em3d::System system = apps::em3d::generate(config);
  pmdl::Model model = apps::em3d::performance_model();
  return model.instantiate(apps::em3d::model_parameters(system, /*k=*/1000));
}

}  // namespace

int main() {
  const hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  hnoc::NetworkModel net(cluster);
  const pmdl::ModelInstance instance = em3d_instance();
  const est::EstimateOptions options{};
  std::vector<map::Candidate> candidates;
  for (int i = 0; i < cluster.size(); ++i) candidates.push_back({i, i});

  std::vector<support::Table> exported;

  // --- A9a: Timeof microbench — reference interpreter vs kernel ----------
  // The same random mappings priced both ways, repeated enough that wall
  // times are meaningful. Values must match bit for bit, and the kernel
  // must clear the 5x acceptance bar.
  {
    est::Plan plan(instance);
    std::vector<std::vector<int>> mappings;
    support::Rng rng(0x4139);  // "A9"
    for (int m = 0; m < 64; ++m) {
      std::vector<int> mapping(static_cast<std::size_t>(instance.size()));
      for (int& slot : mapping) {
        slot = static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(net.size())));
      }
      mappings.push_back(std::move(mapping));
    }
    for (const std::vector<int>& mapping : mappings) {
      const double interpreted =
          est::reference::estimate_time(instance, mapping, net, options);
      const double compiled = plan.evaluate(mapping, net, options);
      if (interpreted != compiled) {
        std::fprintf(stderr,
                     "FATAL: Plan::evaluate diverged from the reference "
                     "interpreter (%.17g vs %.17g)\n",
                     compiled, interpreted);
        return 1;
      }
    }

    const int reps = 40;
    double sink = 0.0;
    const double interp_ms = wall_ms([&] {
      for (int r = 0; r < reps; ++r) {
        for (const std::vector<int>& mapping : mappings) {
          sink += est::reference::estimate_time(instance, mapping, net,
                                                options);
        }
      }
    });
    const double compiled_ms = wall_ms([&] {
      for (int r = 0; r < reps; ++r) {
        for (const std::vector<int>& mapping : mappings) {
          sink += plan.evaluate(mapping, net, options);
        }
      }
    });
    const double evals = static_cast<double>(reps) *
                         static_cast<double>(mappings.size());
    const double speedup = interp_ms / compiled_ms;

    support::Table micro(
        "Ablation A9a: Timeof microbench (em3d, 9 machines, identical values)",
        {"backend", "evaluations", "wall_ms", "us_per_eval", "speedup"});
    micro.add_row({"interpreter", support::Table::num(evals, 0),
                   support::Table::num(interp_ms, 2),
                   support::Table::num(interp_ms * 1e3 / evals, 2), "1.00"});
    micro.add_row({"kernel", support::Table::num(evals, 0),
                   support::Table::num(compiled_ms, 2),
                   support::Table::num(compiled_ms * 1e3 / evals, 2),
                   support::Table::num(speedup, 2)});
    bench::emit(micro);
    exported.push_back(micro);
    std::printf("(checksum %.6g)\n\n", sink);

    if (speedup < 5.0) {
      std::fprintf(stderr,
                   "FATAL: kernel Timeof speedup %.2fx is below the 5x "
                   "acceptance bar\n",
                   speedup);
      return 1;
    }
  }

  // --- A9b: end-to-end selection across threads and the estimate cache --
  // The Group_create workload with the runtime's machinery (portfolio
  // mapper, plan cache): every thread/cache pairing must reproduce the
  // serial cached selection bit for bit, and the reported estimate must be
  // the reference interpreter's price of the chosen mapping.
  {
    const map::PortfolioMapper portfolio;

    map::MappingResult baseline;
    double baseline_ms = 0.0;
    bool have_baseline = false;
    support::Table endtoend(
        "Ablation A9b: Group_create selection by threads x estimate cache "
        "(em3d, portfolio mapper, plan cache)",
        {"threads", "cache", "wall_ms", "speedup", "evaluations",
         "compiled_evals", "identical"});

    for (const bool cached : {true, false}) {
      for (int threads : {1, 2, 8}) {
        std::unique_ptr<support::ThreadPool> pool;
        if (threads > 1) pool = std::make_unique<support::ThreadPool>(threads);
        est::EstimateCache cache;
        est::PlanCache plans;
        map::SearchContext context;
        context.pool = pool.get();
        context.cache = cached ? &cache : nullptr;
        context.plans = &plans;

        map::MappingResult result;
        const double ms = wall_ms([&] {
          result = portfolio.select(instance, candidates, 0, net, options,
                                    context);
        });
        if (!have_baseline) {
          baseline = result;
          baseline_ms = ms;
          have_baseline = true;
        }
        if (result.candidate_for_abstract != baseline.candidate_for_abstract ||
            result.estimated_time != baseline.estimated_time) {
          std::fprintf(stderr,
                       "FATAL: selection at %d threads, cache %s diverged "
                       "from the serial cached baseline\n",
                       threads, cached ? "on" : "off");
          return 1;
        }
        std::vector<int> mapping;
        for (int c : result.candidate_for_abstract) {
          mapping.push_back(candidates[static_cast<std::size_t>(c)].processor);
        }
        const double reference =
            est::reference::estimate_time(instance, mapping, net, options);
        if (reference != result.estimated_time) {
          std::fprintf(stderr,
                       "FATAL: estimate %.17g at %d threads, cache %s is not "
                       "the reference price %.17g of the chosen mapping\n",
                       result.estimated_time, threads, cached ? "on" : "off",
                       reference);
          return 1;
        }
        const bool racy = cached && threads > 1;
        endtoend.add_row(
            {support::Table::num(threads, 0), cached ? "on" : "off",
             support::Table::num(ms, 2), support::Table::num(baseline_ms / ms, 2),
             support::Table::num(result.stats.evaluations, 0),
             racy ? "-" : support::Table::num(result.stats.compiled_evaluations, 0),
             "yes"});
      }
    }
    bench::emit(endtoend);
    exported.push_back(endtoend);
  }

  bench::write_bench_json("est", exported);
  return 0;
}
