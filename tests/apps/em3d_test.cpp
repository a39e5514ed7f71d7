#include "apps/em3d/app.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numeric>

#include "apps/em3d/parallel.hpp"
#include "hnoc/cluster.hpp"

namespace hmpi::apps::em3d {
namespace {

GeneratorConfig small_config() {
  GeneratorConfig config;
  config.nodes_per_subbody = {40, 80, 24, 60};
  config.degree = 4;
  config.remote_fraction = 0.2;
  config.seed = 7;
  return config;
}

TEST(Em3dGenerator, ShapesAndCounts) {
  System system = generate(small_config());
  ASSERT_EQ(system.subbody_count(), 4);
  EXPECT_EQ(system.node_counts(), (std::vector<long long>{40, 80, 24, 60}));
  // E/H split is half and half.
  EXPECT_EQ(system.bodies[0].e_values.size(), 20u);
  EXPECT_EQ(system.bodies[0].h_values.size(), 20u);
  EXPECT_EQ(system.bodies[2].e_values.size(), 12u);
}

TEST(Em3dGenerator, Deterministic) {
  System a = generate(small_config());
  System b = generate(small_config());
  EXPECT_EQ(a.checksum(), b.checksum());
  EXPECT_EQ(a.dep_flat(), b.dep_flat());
}

/// FNV-1a over everything generate() produces: field values, dependency
/// refs and weights row by row, the remote-need lists and the dep matrix.
std::uint64_t system_hash(const System& system) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto add = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  };
  const auto add_double = [&add](double v) { add(std::bit_cast<std::uint64_t>(v)); };
  for (const Subbody& body : system.bodies) {
    for (double v : body.e_values) add_double(v);
    for (double v : body.h_values) add_double(v);
    for (const auto* deps : {&body.e_deps, &body.h_deps}) {
      add(deps->size());
      for (const auto& row : *deps) {
        add(row.size());
        for (const NodeRef& ref : row) {
          add(static_cast<std::uint64_t>(ref.subbody));
          add(static_cast<std::uint64_t>(ref.index));
        }
      }
    }
    for (const auto* weights : {&body.e_weights, &body.h_weights}) {
      for (const auto& row : *weights) {
        for (double w : row) add_double(w);
      }
    }
  }
  const auto p = static_cast<std::size_t>(system.subbody_count());
  for (const auto* needed : {&system.remote_h_needed, &system.remote_e_needed}) {
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j < p; ++j) {
        add((*needed)(i, j).size());
        for (int idx : (*needed)(i, j)) add(static_cast<std::uint64_t>(idx));
      }
    }
  }
  for (long long dep : system.dep_flat()) add(static_cast<std::uint64_t>(dep));
  return hash;
}

TEST(Em3dGenerator, GoldenOutput) {
  // Pins the generator bit for bit across builds and storage layouts: the
  // constant was computed from the nested-vector generator it replaced, so
  // any change to the RNG draw order or to what is stored fails here.
  EXPECT_EQ(system_hash(generate(small_config())), 0x1d36db59eea65130ULL);
}

TEST(Em3dGenerator, SeedChangesSystem) {
  GeneratorConfig other = small_config();
  other.seed = 8;
  EXPECT_NE(generate(small_config()).checksum(), generate(other).checksum());
}

TEST(Em3dGenerator, DepMatrixMatchesNeededLists) {
  System system = generate(small_config());
  const int p = system.subbody_count();
  for (int i = 0; i < p; ++i) {
    EXPECT_EQ(system.dep(static_cast<std::size_t>(i), static_cast<std::size_t>(i)), 0);
    for (int j = 0; j < p; ++j) {
      if (i == j) continue;
      const auto& hs = system.remote_h_needed(static_cast<std::size_t>(i),
                                              static_cast<std::size_t>(j));
      const auto& es = system.remote_e_needed(static_cast<std::size_t>(i),
                                              static_cast<std::size_t>(j));
      EXPECT_EQ(system.dep(static_cast<std::size_t>(i), static_cast<std::size_t>(j)),
                static_cast<int>(hs.size() + es.size()));
    }
  }
}

TEST(Em3dGenerator, ZeroRemoteFractionDecouplesSubbodies) {
  GeneratorConfig config = small_config();
  config.remote_fraction = 0.0;
  System system = generate(config);
  for (long long dep : system.dep_flat()) EXPECT_EQ(dep, 0);
}

TEST(Em3dGenerator, Validation) {
  GeneratorConfig config;
  EXPECT_THROW(generate(config), InvalidArgument);  // no subbodies
  config.nodes_per_subbody = {10};
  config.degree = 0;
  EXPECT_THROW(generate(config), InvalidArgument);
  config.degree = 3;
  config.remote_fraction = 1.5;
  EXPECT_THROW(generate(config), InvalidArgument);
  config.remote_fraction = 0.1;
  config.nodes_per_subbody = {1};
  EXPECT_THROW(generate(config), InvalidArgument);
}

TEST(Em3dSerial, IterationChangesValuesDeterministically) {
  System system = generate(small_config());
  const double before = system.checksum();
  const double after1 = serial_run(system, 1);
  const double after1_again = serial_run(system, 1);
  EXPECT_NE(before, after1);
  EXPECT_EQ(after1, after1_again);
  EXPECT_NE(serial_run(system, 2), after1);
}

TEST(Em3dParallel, MatchesSerialResult) {
  System system = generate(small_config());
  const double expected = serial_run(system, 3);
  const double input_checksum = system.checksum();

  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(4, 50.0);
  mp::World::run_one_per_processor(cluster, [&](mp::Proc& p) {
    ParallelResult result =
        run_parallel(p.world_comm(), system, 3, WorkMode::kReal);
    EXPECT_NEAR(result.checksum, expected, 1e-9 + 1e-12 * std::abs(expected));
  });
  // Every rank reads the caller's system; a real-mode run leaves it as built.
  EXPECT_EQ(system.checksum(), input_checksum);
}

TEST(Em3dParallel, PlacementDoesNotChangeNumerics) {
  System system = generate(small_config());
  const double expected = serial_run(system, 2);
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  // Two very different placements of the 4 subbodies on the 9 machines.
  for (std::vector<int> placement : {std::vector<int>{0, 1, 2, 3},
                                     std::vector<int>{8, 6, 7, 2}}) {
    mp::World::run(cluster, placement, [&](mp::Proc& p) {
      ParallelResult result =
          run_parallel(p.world_comm(), system, 2, WorkMode::kReal);
      EXPECT_NEAR(result.checksum, expected, 1e-9);
    });
  }
}

TEST(Em3dParallel, VirtualModeTimesMatchRealMode) {
  System system = generate(small_config());
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  double real_time = 0.0, virtual_time = 0.0;
  mp::World::run(cluster, {0, 1, 2, 3}, [&](mp::Proc& p) {
    ParallelResult result =
        run_parallel(p.world_comm(), system, 2, WorkMode::kReal);
    if (p.rank() == 0) real_time = result.algorithm_time;
  });
  mp::World::run(cluster, {0, 1, 2, 3}, [&](mp::Proc& p) {
    ParallelResult result =
        run_parallel(p.world_comm(), system, 2, WorkMode::kVirtualOnly);
    if (p.rank() == 0) virtual_time = result.algorithm_time;
  });
  EXPECT_DOUBLE_EQ(real_time, virtual_time);
}

TEST(Em3dParallel, SlowPlacementIsSlower) {
  System system = generate(small_config());
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  auto time_with = [&](std::vector<int> placement) {
    double t = 0.0;
    mp::World::run(cluster, std::move(placement), [&](mp::Proc& p) {
      ParallelResult result =
          run_parallel(p.world_comm(), system, 2, WorkMode::kVirtualOnly);
      if (p.rank() == 0) t = result.algorithm_time;
    });
    return t;
  };
  // Subbody 1 is the biggest (80 nodes): machine 6 (speed 176) vs machine 8
  // (speed 9) must differ strongly.
  const double good = time_with({0, 6, 1, 2});
  const double bad = time_with({0, 8, 1, 2});
  EXPECT_LT(good * 3.0, bad);
}

// --- paper drivers -----------------------------------------------------------

GeneratorConfig paper_like_config() {
  // Nine irregular subbodies; rank-order assignment is a poor match for the
  // paper network's speeds {46 x6, 176, 106, 9} (machine 8 is very slow but
  // gets a mid-sized subbody).
  GeneratorConfig config;
  // Rank order parks subbody 8 (205 nodes) on the speed-9 machine and
  // wastes the speed-106 machine on the tiny subbody 7 — HMPI swaps them.
  config.nodes_per_subbody = {400, 500, 700, 550, 650, 600, 800, 100, 205};
  config.degree = 4;
  config.remote_fraction = 0.05;
  config.seed = 11;
  return config;
}

TEST(Em3dModel, BenchmarkSizeMustFitTheSmallestSubbody) {
  // Figure 4 prices node I as bench*(d[I]/k) with integer division, so a k
  // above d[I] would price that subbody at zero compute.
  const System system = generate(small_config());  // smallest subbody: 24
  EXPECT_NO_THROW(model_parameters(system, 1));
  EXPECT_NO_THROW(model_parameters(system, 24));
  EXPECT_THROW(model_parameters(system, 25), InvalidArgument);
  EXPECT_THROW(model_parameters(system, 0), InvalidArgument);
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  EXPECT_THROW(run_hmpi(cluster, paper_like_config(), 1, WorkMode::kVirtualOnly, 1000),
               InvalidArgument);
}

TEST(Em3dDrivers, HmpiBeatsMpiOnThePaperNetwork) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  DriverResult mpi = run_mpi(cluster, paper_like_config(), 4, WorkMode::kVirtualOnly);
  DriverResult hmpi =
      run_hmpi(cluster, paper_like_config(), 4, WorkMode::kVirtualOnly, 100);
  EXPECT_GT(mpi.algorithm_time, 0.0);
  EXPECT_GT(hmpi.algorithm_time, 0.0);
  // The headline claim, with a little slack for model/runtime mismatch.
  EXPECT_LE(hmpi.algorithm_time, mpi.algorithm_time * 1.05);
  // With this workload the advantage is substantial (machine 8 held a
  // 400-node subbody under rank order).
  EXPECT_GT(mpi.algorithm_time / hmpi.algorithm_time, 1.3);
}

TEST(Em3dDrivers, ResultsMatchBetweenVersionsAndSerial) {
  GeneratorConfig config = small_config();
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  const double expected = serial_run(generate(config), 3);
  DriverResult mpi = run_mpi(cluster, config, 3, WorkMode::kReal);
  DriverResult hmpi = run_hmpi(cluster, config, 3, WorkMode::kReal, 20);
  EXPECT_NEAR(mpi.checksum, expected, 1e-9);
  EXPECT_NEAR(hmpi.checksum, expected, 1e-9);
}

TEST(Em3dDrivers, HmpiPlacementMatchesVolumeSpeedOrder) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  DriverResult hmpi =
      run_hmpi(cluster, paper_like_config(), 2, WorkMode::kVirtualOnly, 100);
  ASSERT_EQ(hmpi.placement.size(), 9u);
  // Subbody 0 is on the host machine (parent pinning).
  EXPECT_EQ(hmpi.placement[0], 0);
  // The biggest non-parent subbody (6: 800 nodes) runs on the fastest
  // machine (6: speed 176).
  EXPECT_EQ(hmpi.placement[6], 6);
  // The slow machine (8, speed 9) does not hold a large subbody.
  for (std::size_t s = 0; s < 9; ++s) {
    if (hmpi.placement[s] == 8) {
      EXPECT_LE(paper_like_config().nodes_per_subbody[s], 500);
    }
  }
}

TEST(Em3dDrivers, PredictionTracksMeasurement) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  DriverResult hmpi =
      run_hmpi(cluster, paper_like_config(), 4, WorkMode::kVirtualOnly, 100);
  ASSERT_GT(hmpi.predicted_time, 0.0);
  EXPECT_NEAR(hmpi.predicted_time, hmpi.algorithm_time,
              0.35 * hmpi.algorithm_time);
}

TEST(Em3dDrivers, NoAdvantageOnHomogeneousCluster) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(9, 50.0);
  GeneratorConfig config = paper_like_config();
  DriverResult mpi = run_mpi(cluster, config, 3, WorkMode::kVirtualOnly);
  DriverResult hmpi = run_hmpi(cluster, config, 3, WorkMode::kVirtualOnly, 100);
  // Any group is as good as any other; HMPI must not be (meaningfully) worse.
  EXPECT_NEAR(hmpi.algorithm_time, mpi.algorithm_time, 0.05 * mpi.algorithm_time);
}

}  // namespace
}  // namespace hmpi::apps::em3d
