// Ablation A10 (DESIGN.md): scaling the selection hot path to P=1000
// (docs/mapper.md, docs/estimator.md). Three tables:
//   * A10a — end-to-end selection on a seeded 1000-machine heterogeneous
//     cluster: the pre-scaling portfolio (greedy + swap-refine + annealing
//     restarts, effort capped so the baseline terminates in CI time) vs the
//     at-scale portfolio (greedy + beam + work-stealing annealing scoring in
//     batches). Enforces equal-or-better makespan. Both sides price on the
//     one batch kernel, so the wall-clock ratio is reported, not barred.
//   * A10b — determinism matrix on the paper's 9-machine testbed: the
//     default portfolio must reproduce the pre-scaling portfolio bit for
//     bit below the scale threshold, across {1, 2, 8} threads x cache
//     {on, off}; beam and annealing-ws must each be bit-identical across
//     the same matrix. The wall_ms column times the 8-thread, cache-on
//     cell: on a 9-machine pool the batch searches price every row they
//     read without the cache, so annealing-ws pays for the revisits a
//     one-at-a-time search would hit.
//   * A10c — Plan::evaluate_batch throughput vs one-at-a-time
//     Plan::evaluate (count-1 calls into the same kernel) on the same random
//     mappings at P=1000, values checked bit for bit (the batch contract);
//     the ratio is reported, not barred.
// Exit status 1 (FATAL on stderr) on any acceptance-bar violation.
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "estimator/estimate_cache.hpp"
#include "estimator/plan.hpp"
#include "hnoc/cluster.hpp"
#include "mapper/mapper.hpp"
#include "pmdl/model.hpp"
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

/// Ring workload over `p` abstract processors: heterogeneous volumes, a few
/// compute phases per slot, one ring transfer each. Deliberately small in op
/// count — at P=1000 the per-evaluation cost is dominated by the mapping
/// machinery, not by walking ops, which is exactly the regime A10 measures.
pmdl::ModelInstance ring_instance(int p) {
  pmdl::InstanceBuilder b("mapscale-ring");
  b.shape({p});
  for (int a = 0; a < p; ++a) {
    b.node_volume(a, 400.0 + 40.0 * a);
    b.link(a, (a + 1) % p, 1e5);
  }
  b.scheme([p](pmdl::ScheduleSink& s) {
    for (long long a = 0; a < p; ++a) {
      const long long c[1] = {a};
      for (int r = 0; r < 3; ++r) s.compute(c, 5.0);
      const long long d[1] = {(a + 1) % p};
      s.transfer(c, d, 100.0);
    }
  });
  return b.build();
}

std::vector<map::Candidate> all_candidates(int n) {
  std::vector<map::Candidate> candidates;
  candidates.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) candidates.push_back({i, i});
  return candidates;
}

}  // namespace

int main() {
  constexpr int kMachines = 1000;
  const est::EstimateOptions options{};
  std::vector<support::Table> exported;

  // Equal effort knobs on both sides, capped so the pre-scaling baseline
  // finishes in CI time (its per-round substitution scan is O(p * n) full
  // evaluations).
  map::PortfolioOptions legacy_opts;
  legacy_opts.scale_threshold = std::numeric_limits<int>::max();  // pre-PR path
  legacy_opts.swap_refine_rounds = 1;
  legacy_opts.annealing.iterations = 400;
  map::PortfolioOptions scale_opts;
  scale_opts.swap_refine_rounds = 1;
  scale_opts.annealing.iterations = 400;
  scale_opts.work_stealing.annealing.iterations = 400;

  // --- A10a: P=1000 selection — pre-scaling vs at-scale portfolio ---------
  {
    const hnoc::Cluster cluster = bench::make_large_cluster(kMachines);
    hnoc::NetworkModel net(cluster);
    const pmdl::ModelInstance instance = ring_instance(9);
    const std::vector<map::Candidate> candidates = all_candidates(net.size());

    struct Config {
      const char* name;
      const map::Mapper* mapper;
    };
    const map::PortfolioMapper legacy(legacy_opts);
    const map::PortfolioMapper scaled(scale_opts);
    const Config configs[] = {{"portfolio-pre", &legacy},
                              {"portfolio", &scaled}};

    support::Table at_scale(
        "Ablation A10a: selection at P=1000 (ring model, 8 threads, cache "
        "on, capped equal effort)",
        {"mapper", "wall_ms", "speedup", "makespan_s", "evaluations"});
    double baseline_ms = 0.0;
    double baseline_makespan = 0.0;
    double scaled_makespan = 0.0;
    for (const Config& config : configs) {
      support::ThreadPool pool(8);
      est::EstimateCache cache;
      est::PlanCache plans;
      map::SearchContext context;
      context.pool = &pool;
      context.cache = &cache;
      context.plans = &plans;

      map::MappingResult result;
      const double ms = wall_ms([&] {
        result = config.mapper->select(instance, candidates, 0, net, options,
                                       context);
      });
      const bool is_baseline = config.mapper == &legacy;
      if (is_baseline) {
        baseline_ms = ms;
        baseline_makespan = result.estimated_time;
      } else {
        scaled_makespan = result.estimated_time;
      }
      at_scale.add_row({config.name, support::Table::num(ms, 1),
                        support::Table::num(baseline_ms / ms, 1),
                        support::Table::num(result.estimated_time, 6),
                        support::Table::num(result.stats.evaluations, 0)});
    }
    bench::emit(at_scale);
    exported.push_back(at_scale);

    if (scaled_makespan > baseline_makespan) {
      std::fprintf(stderr,
                   "FATAL: at-scale portfolio makespan %.9g regressed the "
                   "pre-scaling baseline %.9g\n",
                   scaled_makespan, baseline_makespan);
      return 1;
    }
  }

  // --- A10b: determinism matrix on the paper's 9-machine testbed ----------
  // Below the scale threshold the default portfolio must BE the pre-scaling
  // portfolio, bit for bit; the new mappers must each return one selection
  // across every thread count and cache toggle.
  {
    const hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
    hnoc::NetworkModel net(cluster);
    const pmdl::ModelInstance instance = ring_instance(6);
    const std::vector<map::Candidate> candidates = all_candidates(net.size());

    const map::PortfolioMapper legacy(legacy_opts);
    const map::PortfolioMapper scaled(scale_opts);
    const map::BeamMapper beam;
    const map::WorkStealingAnnealingMapper ws;
    struct Row {
      const char* name;
      const map::Mapper* mapper;
      const map::Mapper* reference;  // must match this mapper's serial result
    };
    const Row rows[] = {{"portfolio", &scaled, &legacy},
                        {"beam", &beam, &beam},
                        {"annealing-ws", &ws, &ws}};

    support::Table determinism(
        "Ablation A10b: selections across threads {1,2,8} x cache {on,off} "
        "(paper 9-machine testbed)",
        {"mapper", "reference", "combos", "identical", "makespan_s",
         "wall_ms"});
    for (const Row& row : rows) {
      // Serial, cache-on reference result.
      map::MappingResult reference;
      {
        est::EstimateCache cache;
        est::PlanCache plans;
        map::SearchContext context;
        context.cache = &cache;
        context.plans = &plans;
        reference = row.reference->select(instance, candidates, 0, net,
                                          options, context);
      }
      int combos = 0;
      double cell_ms = 0.0;  // 8 threads, cache on
      for (int threads : {1, 2, 8}) {
        for (bool cache_on : {true, false}) {
          std::unique_ptr<support::ThreadPool> pool;
          if (threads > 1) {
            pool = std::make_unique<support::ThreadPool>(threads);
          }
          est::EstimateCache cache;
          est::PlanCache plans;
          map::SearchContext context;
          context.pool = pool.get();
          context.cache = cache_on ? &cache : nullptr;
          context.plans = &plans;
          map::MappingResult result;
          const double ms = wall_ms([&] {
            result = row.mapper->select(instance, candidates, 0, net, options,
                                        context);
          });
          if (threads == 8 && cache_on) cell_ms = ms;
          ++combos;
          if (result.candidate_for_abstract !=
                  reference.candidate_for_abstract ||
              result.estimated_time != reference.estimated_time) {
            std::fprintf(stderr,
                         "FATAL: %s selection diverged at %d threads, cache "
                         "%s\n",
                         row.name, threads, cache_on ? "on" : "off");
            return 1;
          }
        }
      }
      determinism.add_row(
          {row.name, row.reference == row.mapper ? "self" : "portfolio-pre",
           support::Table::num(combos, 0), "yes",
           support::Table::num(reference.estimated_time, 6),
           support::Table::num(cell_ms, 1)});
    }
    bench::emit(determinism);
    exported.push_back(determinism);
  }

  // --- A10c: evaluate_batch throughput vs one-at-a-time evaluate ----------
  {
    const hnoc::Cluster cluster = bench::make_large_cluster(kMachines);
    hnoc::NetworkModel net(cluster);
    const pmdl::ModelInstance instance = ring_instance(9);
    const est::Plan plan(instance);
    const auto p = static_cast<std::size_t>(instance.size());

    constexpr std::size_t kBatch = 4096;
    support::Rng rng(0x413063);  // "A10c"
    std::vector<int> soa(p * kBatch);
    std::vector<std::vector<int>> rows(kBatch,
                                       std::vector<int>(p, 0));
    for (std::size_t i = 0; i < kBatch; ++i) {
      for (std::size_t a = 0; a < p; ++a) {
        const int proc = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(net.size())));
        rows[i][a] = proc;
        soa[a * kBatch + i] = proc;
      }
    }

    std::vector<double> single(kBatch);
    const double single_ms = wall_ms([&] {
      for (std::size_t i = 0; i < kBatch; ++i) {
        single[i] = plan.evaluate(rows[i], net, options);
      }
    });
    std::vector<double> batched(kBatch);
    const double batch_ms = wall_ms([&] {
      plan.evaluate_batch(soa, kBatch, net, options, batched);
    });
    for (std::size_t i = 0; i < kBatch; ++i) {
      if (single[i] != batched[i]) {
        std::fprintf(stderr,
                     "FATAL: evaluate_batch diverged from evaluate at "
                     "mapping %zu (%.17g vs %.17g)\n",
                     i, batched[i], single[i]);
        return 1;
      }
    }

    support::Table micro(
        "Ablation A10c: batch estimation microbench (P=1000, identical "
        "values)",
        {"backend", "evaluations", "wall_ms", "us_per_eval", "speedup"});
    const auto evals = static_cast<double>(kBatch);
    micro.add_row({"evaluate x N", support::Table::num(evals, 0),
                   support::Table::num(single_ms, 2),
                   support::Table::num(single_ms * 1e3 / evals, 2), "1.00"});
    micro.add_row({"evaluate_batch", support::Table::num(evals, 0),
                   support::Table::num(batch_ms, 2),
                   support::Table::num(batch_ms * 1e3 / evals, 2),
                   support::Table::num(single_ms / batch_ms, 2)});
    bench::emit(micro);
    exported.push_back(micro);
  }

  bench::write_bench_json("mapscale", exported);
  return 0;
}
