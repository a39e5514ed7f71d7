// Golden selections of the work-stealing annealing mapper.
//
// fixture_text() runs WorkStealingAnnealingMapper over seeded sched_job
// instances (bench/bench_util.hpp) of width 2-10 on large_cluster at 12,
// 40, 80, 200 and 1000 machines, at 1 and 4 search threads, and prints each
// selection and its estimated time in hexfloat. Per machine count it covers
// six shapes of the search:
//   plain    one process per machine, default options;
//   shared   a third of the machines host a second process, so candidates
//            share processors and the kernel aliases their ring links;
//   fallback top_k = 2 with the restriction always on, so every target is
//            in use and substitutions draw from all unused candidates;
//   spare1   n == p + 1 candidates;
//   oneslot  width 2: one free slot, substitutions only;
//   ragged   iterations that are not a multiple of the chunk.
// tests/mapper/golden/annealing_ws.txt holds this text as recorded from the
// mapper that priced every proposal it drew, so it pins that the random
// draws, the trajectories and the selections do not depend on which
// proposals are priced.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../golden_text.hpp"
#include "bench_util.hpp"
#include "mapper/mapper.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace hmpi::map {
namespace {

using golden::first_difference;
using golden::hexfloat;

/// One process per machine; with `shared`, every third machine hosts a
/// second process, listed right after the first.
std::vector<Candidate> candidate_pool(int machines, bool shared) {
  std::vector<Candidate> cs;
  for (int m = 0; m < machines; ++m) {
    cs.push_back({static_cast<int>(cs.size()), m});
    if (shared && m % 3 == 0) cs.push_back({static_cast<int>(cs.size()), m});
  }
  return cs;
}

/// One fixture line per thread count for one seeded case. The ring payload
/// is 0, 64 KiB or 1 MiB, never 0 when `ring` is set.
std::string case_lines(const std::string& label, const hnoc::Cluster& cluster,
                       const std::vector<Candidate>& candidates, int width,
                       WorkStealingOptions options, support::Rng& rng,
                       bool ring = false) {
  std::vector<long long> volumes(static_cast<std::size_t>(width));
  for (long long& v : volumes) v = rng.next_in(50, 500);
  const long long ring_bytes[3] = {0, 64 * 1024, 1 << 20};
  const long long bytes =
      ring ? ring_bytes[1 + rng.next_below(2)] : ring_bytes[rng.next_below(3)];
  const pmdl::ModelInstance instance = bench::sched_job_model()->instantiate(
      {pmdl::array(volumes), pmdl::scalar(bytes)});
  const int parent = static_cast<int>(
      rng.next_below(static_cast<std::uint64_t>(candidates.size())));
  options.annealing.seed = rng.next();
  const WorkStealingAnnealingMapper mapper(options);
  const hnoc::NetworkModel network(cluster);

  std::string out;
  for (const int threads : {1, 4}) {
    support::ThreadPool pool(threads);
    SearchContext context;
    context.pool = &pool;
    const MappingResult result = mapper.select(
        instance, candidates, parent, network, est::EstimateOptions{}, context);
    out += "M=" + std::to_string(cluster.size()) + " " + label +
           " n=" + std::to_string(candidates.size()) +
           " w=" + std::to_string(width) + " bytes=" + std::to_string(bytes) +
           " parent=" + std::to_string(parent) +
           " threads=" + std::to_string(threads) + " sel=";
    for (std::size_t a = 0; a < result.candidate_for_abstract.size(); ++a) {
      if (a > 0) out += ',';
      out += std::to_string(result.candidate_for_abstract[a]);
    }
    out += " time=" + hexfloat(result.estimated_time) + "\n";
  }
  return out;
}

/// Every line of tests/mapper/golden/annealing_ws.txt, in file order.
std::string fixture_text() {
  support::Rng rng(0x414e4e45414cULL);  // "ANNEAL"
  std::string out;
  for (const int machines : {12, 40, 80, 200, 1000}) {
    const hnoc::Cluster cluster = bench::make_large_cluster(machines);
    const std::vector<Candidate> pool = candidate_pool(machines, false);
    const auto width = [&] { return static_cast<int>(rng.next_in(2, 10)); };

    out += case_lines("plain", cluster, pool, width(), WorkStealingOptions{},
                      rng);
    out += case_lines("shared", cluster, candidate_pool(machines, true),
                      width(), WorkStealingOptions{}, rng, /*ring=*/true);

    WorkStealingOptions fallback;
    fallback.locality.top_k = 2;
    fallback.locality.threshold = 0;
    const int fallback_width = static_cast<int>(rng.next_in(4, 10));
    out += case_lines("fallback", cluster, pool, fallback_width, fallback, rng);

    const int spare_width = width();
    const std::vector<Candidate> spare(
        pool.begin(), pool.begin() + spare_width + 1);
    out += case_lines("spare1", cluster, spare, spare_width,
                      WorkStealingOptions{}, rng);

    out += case_lines("oneslot", cluster, pool, 2, WorkStealingOptions{}, rng);

    WorkStealingOptions ragged;
    ragged.annealing.iterations = 1001;
    ragged.chunk = 8;
    out += case_lines("ragged", cluster, pool, width(), ragged, rng);
  }
  return out;
}


TEST(AnnealingWsGolden, SelectionsMatchTheRecordedFixture) {
  const std::string path =
      std::string(HMPI_MAPPER_GOLDEN_DIR) + "/annealing_ws.txt";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden fixture " << path;
  std::ostringstream expected;
  expected << in.rdbuf();
  const std::string diff = first_difference(expected.str(), fixture_text());
  EXPECT_TRUE(diff.empty()) << "differs from " << path << " at " << diff;
}

}  // namespace
}  // namespace hmpi::map
