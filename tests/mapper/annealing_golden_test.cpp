// Golden selections of the annealing mapper and the default portfolio.
//
// fixture_text() runs AnnealingMapper at four seeds and a default
// PortfolioMapper over A1's EM3D and 2x2 MM instances, Fig 11-sized MM
// (m = 3, r = 9, n = 36) at l = 9, 19 and 36 on the paper's MM network, and
// seeded sched_job instances (bench/bench_util.hpp) on large_cluster pools
// of 12, 40, 100 and 300 machines. Each search runs at 1 and 4 threads,
// with and without an estimate cache, and prints its selection and
// estimated time in hexfloat; a 1-thread cached search also prints its
// evaluations, cache hits and cache misses. The 100- and 300-machine pools
// are above the portfolio's scale threshold, so they pin its at-scale
// member list too.
//
// tests/mapper/golden/annealing.txt holds this text as recorded from the
// mapper whose AnnealingMapper ran its own search loop and whose portfolio
// raced its small-pool members, so it pins that neither the shared
// annealing walk nor running the members in sequence moves a selection, an
// estimate or a cache statistic.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "../golden_text.hpp"
#include "apps/em3d/app.hpp"
#include "apps/matmul/app.hpp"
#include "bench_util.hpp"
#include "estimator/estimate_cache.hpp"
#include "hnoc/cluster.hpp"
#include "mapper/mapper.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace hmpi::map {
namespace {

using golden::first_difference;
using golden::hexfloat;

/// One search problem of the fixture.
struct Case {
  std::string label;
  pmdl::ModelInstance instance;
  hnoc::Cluster cluster;
  int parent = 0;
};

std::vector<Candidate> one_per_machine(const hnoc::Cluster& cluster) {
  std::vector<Candidate> cs;
  for (int i = 0; i < cluster.size(); ++i) cs.push_back({i, i});
  return cs;
}

/// The Figure-7 model on an m x m grid, each rectangle sized to the grid
/// processor's speed with the parent's machine at (0, 0), as run_hmpi
/// builds it.
pmdl::ModelInstance matmul_instance(const hnoc::Cluster& cluster, int m, int r,
                                    int n, int l) {
  const hnoc::NetworkModel network(cluster);
  std::vector<double> others;
  for (int i = 1; i < cluster.size(); ++i) others.push_back(network.speed(i));
  std::sort(others.begin(), others.end(), std::greater<double>());
  std::vector<double> grid_speeds{network.speed(0)};
  grid_speeds.insert(grid_speeds.end(), others.begin(),
                     others.begin() + (m * m - 1));
  const apps::matmul::Partition partition(m, l, grid_speeds);
  return apps::matmul::performance_model().instantiate(
      apps::matmul::model_parameters(m, r, n, partition));
}

/// Every case of the fixture, in file order.
std::vector<Case> cases() {
  std::vector<Case> out;

  // A1's EM3D instance: the Figure-4 model over an irregular 9-subbody
  // object on the paper's EM3D network.
  apps::em3d::GeneratorConfig em3d_config;
  em3d_config.nodes_per_subbody = {4000, 5000, 7000, 5500, 6500,
                                   6000, 8000, 1000, 2050};
  em3d_config.degree = 5;
  em3d_config.remote_fraction = 0.05;
  em3d_config.seed = 17;
  const apps::em3d::System system = apps::em3d::generate(em3d_config);
  out.push_back({"em3d",
                 apps::em3d::performance_model().instantiate(
                     apps::em3d::model_parameters(system, /*k=*/1000)),
                 hnoc::testbeds::paper_em3d_network(), 0});

  // A1's 2x2 MM instance.
  const hnoc::Cluster mm_net = hnoc::testbeds::paper_mm_network();
  const std::vector<double> grid_speeds{106, 46, 46, 46};
  const apps::matmul::Partition partition(2, 6, grid_speeds);
  out.push_back({"mm2x2",
                 apps::matmul::performance_model().instantiate(
                     apps::matmul::model_parameters(2, 8, 24, partition)),
                 mm_net, 0});

  // Fig 11-sized MM at three generalised block sizes.
  for (const int l : {9, 19, 36}) {
    out.push_back({"mm3x3_l" + std::to_string(l),
                   matmul_instance(mm_net, 3, 9, 36, l), mm_net, 0});
  }

  // Seeded sched_job instances on large_cluster pools.
  support::Rng rng(0x414e4e4541ULL);
  for (const int machines : {12, 40, 100, 300}) {
    const auto width = static_cast<int>(rng.next_in(3, 10));
    std::vector<long long> volumes(static_cast<std::size_t>(width));
    for (long long& v : volumes) v = rng.next_in(50, 500);
    const long long ring_bytes[3] = {0, 64 * 1024, 1 << 20};
    const long long bytes = ring_bytes[rng.next_below(3)];
    const int parent = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(machines)));
    out.push_back({"sched_M" + std::to_string(machines) + "_w" +
                       std::to_string(width) + "_b" + std::to_string(bytes),
                   bench::sched_job_model()->instantiate(
                       {pmdl::array(volumes), pmdl::scalar(bytes)}),
                   bench::make_large_cluster(machines), parent});
  }
  return out;
}

/// The default seed and three seeded ones.
std::vector<std::uint64_t> annealing_seeds() {
  support::Rng rng(0x5345454453ULL);  // "SEEDS"
  std::vector<std::uint64_t> seeds{AnnealingOptions().seed};
  for (int i = 0; i < 3; ++i) seeds.push_back(rng.next());
  return seeds;
}

/// One fixture line per (threads, cache) pair of one search.
std::string search_lines(const Case& c, const Mapper& mapper,
                         const std::string& label) {
  const hnoc::NetworkModel network(c.cluster);
  const std::vector<Candidate> candidates = one_per_machine(c.cluster);
  std::string out;
  for (const int threads : {1, 4}) {
    for (const bool cached : {false, true}) {
      support::ThreadPool pool(threads);
      est::EstimateCache cache;
      SearchContext context;
      context.pool = &pool;
      context.cache = cached ? &cache : nullptr;
      const MappingResult result =
          mapper.select(c.instance, candidates, c.parent, network,
                        est::EstimateOptions{}, context);
      out += c.label + " " + label + " threads=" + std::to_string(threads) +
             " cache=" + (cached ? "on" : "off") + " sel=";
      for (std::size_t a = 0; a < result.candidate_for_abstract.size(); ++a) {
        if (a > 0) out += ',';
        out += std::to_string(result.candidate_for_abstract[a]);
      }
      out += " time=" + hexfloat(result.estimated_time);
      if (cached && threads == 1) {
        out += " evals=" + std::to_string(result.stats.evaluations) +
               " hits=" + std::to_string(result.stats.cache_hits) +
               " misses=" + std::to_string(result.stats.cache_misses);
      }
      out += "\n";
    }
  }
  return out;
}

/// Every line of tests/mapper/golden/annealing.txt, in file order.
std::string fixture_text() {
  std::string out;
  for (const Case& c : cases()) {
    for (const std::uint64_t seed : annealing_seeds()) {
      AnnealingOptions options;
      options.seed = seed;
      char label[48];
      std::snprintf(label, sizeof label, "annealing seed=%#llx",
                    static_cast<unsigned long long>(seed));
      out += search_lines(c, AnnealingMapper(options), label);
    }
    out += search_lines(c, PortfolioMapper(), "portfolio");
  }
  return out;
}

TEST(AnnealingGolden, SelectionsMatchTheRecordedFixture) {
  const std::string path =
      std::string(HMPI_MAPPER_GOLDEN_DIR) + "/annealing.txt";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden fixture " << path;
  std::ostringstream expected;
  expected << in.rdbuf();
  const std::string diff = first_difference(expected.str(), fixture_text());
  EXPECT_TRUE(diff.empty()) << "differs from " << path << " at " << diff;
}

// AnnealingMapper is one work-stealing annealing chain: one chain, one
// proposal per step, every non-parent candidate a substitution target, and
// the chain seed equal to the annealing seed.
TEST(AnnealingGolden, AnnealingIsOneChunkOneWorkStealingChain) {
  for (const Case& c : cases()) {
    const hnoc::NetworkModel network(c.cluster);
    const std::vector<Candidate> candidates = one_per_machine(c.cluster);
    for (const std::uint64_t seed : annealing_seeds()) {
      AnnealingOptions options;
      options.seed = seed;
      WorkStealingOptions chain;
      chain.chains = 1;
      chain.chunk = 1;
      chain.annealing = options;
      chain.annealing.seed = seed ^ 0x9e3779b97f4a7c15ULL;
      chain.locality.threshold = INT_MAX;
      ASSERT_EQ(WorkStealingAnnealingMapper::chain_seed(chain.annealing.seed, 0),
                seed);
      const MappingResult annealed = AnnealingMapper(options).select(
          c.instance, candidates, c.parent, network, est::EstimateOptions{});
      const MappingResult walked = WorkStealingAnnealingMapper(chain).select(
          c.instance, candidates, c.parent, network, est::EstimateOptions{});
      EXPECT_EQ(annealed.candidate_for_abstract, walked.candidate_for_abstract)
          << c.label << " seed " << seed;
      EXPECT_EQ(annealed.estimated_time, walked.estimated_time)
          << c.label << " seed " << seed;
      EXPECT_EQ(annealed.stats.evaluations, walked.stats.evaluations)
          << c.label << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace hmpi::map
