// Property-style sweeps: the distributed computations must agree with their
// serial references for arbitrary generated workloads, partitions, and
// placements; and simulated runs must be deterministic.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/em3d/parallel.hpp"
#include "apps/matmul/algorithm.hpp"
#include "hnoc/cluster.hpp"
#include "support/rng.hpp"

namespace hmpi::apps {
namespace {

// --- EM3D: parallel == serial over random systems -------------------------------

class Em3dPropertyP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Em3dPropertyP, ParallelMatchesSerialOnRandomSystems) {
  const std::uint64_t seed = GetParam();
  support::Rng rng(seed);

  em3d::GeneratorConfig config;
  const int p = static_cast<int>(rng.next_in(2, 6));
  for (int i = 0; i < p; ++i) {
    config.nodes_per_subbody.push_back(static_cast<int>(rng.next_in(4, 120)));
  }
  config.degree = static_cast<int>(rng.next_in(1, 6));
  config.remote_fraction = rng.next_double_in(0.0, 0.6);
  config.seed = seed * 977 + 13;
  const em3d::System system = em3d::generate(config);
  const int iterations = static_cast<int>(rng.next_in(1, 4));

  const double expected = em3d::serial_run(system, iterations);

  // Random heterogeneous cluster and random placement.
  hnoc::ClusterBuilder b;
  const int machines = p + static_cast<int>(rng.next_in(0, 3));
  for (int i = 0; i < machines; ++i) {
    b.add(std::string("m").append(std::to_string(i)),
          rng.next_double_in(5.0, 200.0));
  }
  hnoc::Cluster cluster = b.build();
  std::vector<int> placement;
  for (int i = 0; i < p; ++i) {
    placement.push_back(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(machines))));
  }

  mp::World::run(cluster, placement, [&](mp::Proc& proc) {
    auto result = em3d::run_parallel(proc.world_comm(), system, iterations,
                                     em3d::WorkMode::kReal);
    EXPECT_NEAR(result.checksum, expected, 1e-9 + 1e-12 * std::abs(expected))
        << "seed " << seed;
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, Em3dPropertyP,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// --- MM: distributed == serial over random partitions ---------------------------

class MmPropertyP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MmPropertyP, DistributedMatchesSerialOnRandomPartitions) {
  const std::uint64_t seed = GetParam();
  support::Rng rng(seed ^ 0x5151);

  const int m = static_cast<int>(rng.next_in(1, 3));
  const int r = static_cast<int>(rng.next_in(1, 5));
  const int l = static_cast<int>(rng.next_in(m, 2 * m + 2));
  const int n = static_cast<int>(rng.next_in(l, 3 * l));
  std::vector<double> grid_speeds;
  for (int i = 0; i < m * m; ++i) {
    grid_speeds.push_back(rng.next_double_in(1.0, 100.0));
  }

  matmul::MmConfig config;
  config.m = m;
  config.r = r;
  config.n = n;
  config.partition = matmul::Partition(m, l, grid_speeds);
  config.mode = em3d::WorkMode::kReal;
  config.seed = seed;

  const auto a = matmul::make_matrix(seed, 0, n, r);
  const auto b = matmul::make_matrix(seed, 1, n, r);
  const auto expected = matmul::serial_multiply(a, b);

  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(m * m, 50.0);
  mp::World::run_one_per_processor(cluster, [&](mp::Proc& proc) {
    support::Matrix<double> c;
    matmul::run_distributed(proc.world_comm(), config, &c);
    if (proc.rank() == 0) {
      ASSERT_EQ(c.rows(), expected.rows()) << "seed " << seed;
      for (std::size_t i = 0; i < expected.rows(); ++i) {
        for (std::size_t j = 0; j < expected.cols(); ++j) {
          ASSERT_NEAR(c(i, j), expected(i, j), 1e-9)
              << "seed " << seed << " at " << i << "," << j;
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, MmPropertyP,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// --- determinism -----------------------------------------------------------------

TEST(AppDeterminism, Em3dVirtualTimesIdenticalAcrossRuns) {
  em3d::GeneratorConfig config;
  config.nodes_per_subbody = {50, 120, 80, 40};
  config.degree = 4;
  config.remote_fraction = 0.2;
  config.seed = 3;
  const em3d::System system = em3d::generate(config);
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();

  auto run_once = [&] {
    double t = 0.0;
    mp::World::run(cluster, {2, 6, 8, 0}, [&](mp::Proc& p) {
      auto result = em3d::run_parallel(p.world_comm(), system, 3,
                                       em3d::WorkMode::kVirtualOnly);
      if (p.rank() == 0) t = result.algorithm_time;
    });
    return t;
  };
  const double first = run_once();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(run_once(), first);
}

TEST(AppDeterminism, MmVirtualTimesIdenticalAcrossRuns) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_mm_network();
  matmul::MmConfig config;
  config.m = 3;
  config.r = 8;
  config.n = 9;
  config.partition =
      matmul::Partition(3, 3, std::vector<double>{106, 46, 46, 46, 46, 46, 46, 46, 9});
  config.mode = em3d::WorkMode::kVirtualOnly;

  auto run_once = [&] {
    double t = 0.0;
    mp::World::run_one_per_processor(cluster, [&](mp::Proc& p) {
      auto result = matmul::run_distributed(p.world_comm(), config);
      if (p.rank() == 0) t = result.algorithm_time;
    });
    return t;
  };
  const double first = run_once();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(run_once(), first);
}

}  // namespace
}  // namespace hmpi::apps
