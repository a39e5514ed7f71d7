// Pins the paper-reproduction outcomes (EXPERIMENTS.md) under test: if a
// change to any layer moves the headline ratios out of their documented
// bands, this suite fails. Uses scaled-down versions of the bench setups.
#include <gtest/gtest.h>

#include "apps/em3d/app.hpp"
#include "apps/matmul/app.hpp"
#include "hnoc/cluster.hpp"

namespace hmpi::apps {
namespace {

TEST(PaperFigures, Figure9Em3dSpeedupBand) {
  // Paper: HMPI almost 1.5x faster than MPI. Measured band: ~1.6x.
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  em3d::GeneratorConfig config;
  config.nodes_per_subbody = {400, 500, 700, 550, 650, 600, 800, 100, 205};
  config.degree = 5;
  config.remote_fraction = 0.05;
  config.seed = 2003;
  auto mpi = em3d::run_mpi(cluster, config, 4, em3d::WorkMode::kVirtualOnly);
  auto hmpi_result =
      em3d::run_hmpi(cluster, config, 4, em3d::WorkMode::kVirtualOnly, 100);
  const double speedup = mpi.algorithm_time / hmpi_result.algorithm_time;
  EXPECT_GE(speedup, 1.3);
  EXPECT_LE(speedup, 2.2);
}

TEST(PaperFigures, Figure9SpeedupStableAcrossSizes) {
  // The paper's speedup curve is roughly flat in problem size.
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  double previous = 0.0;
  for (int scale : {1, 4}) {
    em3d::GeneratorConfig config;
    const int base[9] = {400, 500, 700, 550, 650, 600, 800, 100, 205};
    for (int b : base) config.nodes_per_subbody.push_back(b * scale);
    config.degree = 5;
    config.remote_fraction = 0.05;
    config.seed = 2003;
    auto mpi = em3d::run_mpi(cluster, config, 4, em3d::WorkMode::kVirtualOnly);
    auto hm = em3d::run_hmpi(cluster, config, 4, em3d::WorkMode::kVirtualOnly, 100);
    const double speedup = mpi.algorithm_time / hm.algorithm_time;
    if (previous > 0.0) {
      EXPECT_NEAR(speedup, previous, 0.25 * previous);
    }
    previous = speedup;
  }
}

TEST(PaperFigures, Figure11MmSpeedupBand) {
  // Paper: almost 3x; our simulated network overshoots to ~4.5x
  // (EXPERIMENTS.md explains why). Band keeps both within reach.
  hnoc::Cluster cluster = hnoc::testbeds::paper_mm_network();
  matmul::MmDriverConfig config;
  config.m = 3;
  config.r = 9;
  config.n = 18;
  config.l = 9;
  config.mode = matmul::WorkMode::kVirtualOnly;
  auto mpi = matmul::run_mpi(cluster, config);
  auto hm = matmul::run_hmpi(cluster, config);
  const double speedup = mpi.algorithm_time / hm.algorithm_time;
  EXPECT_GE(speedup, 2.5);
  EXPECT_LE(speedup, 6.0);
}

TEST(PaperFigures, Figure10MpiBaselineFlatInL) {
  // The homogeneous baseline does not depend on l.
  hnoc::Cluster cluster = hnoc::testbeds::paper_mm_network();
  double previous = -1.0;
  for (int l : {3, 6, 12}) {
    matmul::MmDriverConfig config;
    config.m = 3;
    config.r = 8;
    config.n = 24;
    config.l = l;
    config.mode = matmul::WorkMode::kVirtualOnly;
    auto mpi = matmul::run_mpi(cluster, config);
    if (previous > 0.0) {
      EXPECT_NEAR(mpi.algorithm_time, previous, 0.02 * previous);
    }
    previous = mpi.algorithm_time;
  }
}

TEST(PaperFigures, Figure10HmpiAlwaysBelowMpi) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_mm_network();
  for (int l : {3, 6, 12, 24}) {
    matmul::MmDriverConfig config;
    config.m = 3;
    config.r = 8;
    config.n = 24;
    config.l = l;
    config.mode = matmul::WorkMode::kVirtualOnly;
    auto mpi = matmul::run_mpi(cluster, config);
    auto hm = matmul::run_hmpi(cluster, config);
    EXPECT_LT(hm.algorithm_time, mpi.algorithm_time) << "l=" << l;
  }
}

}  // namespace
}  // namespace hmpi::apps
