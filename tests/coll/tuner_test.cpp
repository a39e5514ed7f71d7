// CollTuner behaviour: memoization keyed on (op, size bucket, roster), the
// resolution order that puts world and communicator pins ahead of the
// tuner, the predicted-fastest guarantee, a memo that survives a Recon's
// speed changes, and selection determinism across runtime configurations
// (search threads, estimate cache) that must not influence collective
// choices.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "coll/cost.hpp"
#include "coll/tuner.hpp"
#include "hmpi/runtime.hpp"
#include "hnoc/cluster.hpp"
#include "mpsim/comm.hpp"
#include "telemetry/metrics.hpp"

namespace hmpi::coll {
namespace {

std::vector<int> full_roster(const hnoc::Cluster& cluster) {
  std::vector<int> procs(static_cast<std::size_t>(cluster.size()));
  std::iota(procs.begin(), procs.end(), 0);
  return procs;
}

TEST(CollTunerTest, MemoizesPerSizeBucket) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  CollTuner tuner(cluster, CollTuner::Options{});
  const std::vector<int> procs = full_roster(cluster);

  double predicted = -1.0;
  const int first = tuner.select(CollOp::kBcast, procs, 1000, &predicted);
  EXPECT_GT(predicted, 0.0);
  EXPECT_EQ(tuner.cache_misses(), 1u);
  EXPECT_EQ(tuner.cache_hits(), 0u);

  // Same power-of-two bucket (512..1023) -> hit; different bucket -> miss.
  EXPECT_EQ(tuner.select(CollOp::kBcast, procs, 1023, &predicted), first);
  EXPECT_EQ(tuner.cache_hits(), 1u);
  tuner.select(CollOp::kBcast, procs, 1024, &predicted);
  EXPECT_EQ(tuner.cache_misses(), 2u);
}

// The one resolution rule: a world pin beats the tuner's pick, and a
// communicator's own pin beats both. A pinned op never asks the tuner, so
// it is not priced.
TEST(CollTunerTest, ForcedPolicyBypassesPrediction) {
  const hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  const std::size_t bytes = 4096;
  const int chain = static_cast<int>(BcastAlgo::kChain);
  const int two_level = static_cast<int>(BcastAlgo::kTwoLevel);
  auto tuner = std::make_shared<CollTuner>(cluster, CollTuner::Options{});
  const int priced =
      tuner->select(CollOp::kBcast, full_roster(cluster), bytes, nullptr);
  ASSERT_NE(priced, chain);
  ASSERT_NE(priced, two_level);

  const auto runs = [](int algo) {
    return telemetry::metrics().snapshot().counter_value(
        std::string("coll.bcast.") + algo_name(CollOp::kBcast, algo));
  };
  const double chain_before = runs(chain);
  const double two_level_before = runs(two_level);
  mp::World::Options options;
  options.coll.bcast = BcastAlgo::kChain;
  mp::World::run_one_per_processor(
      cluster,
      [&](mp::Proc& proc) {
        proc.world().get_or_create_shared([&]() -> std::shared_ptr<void> {
          proc.world().set_coll_selector(tuner);
          return tuner;
        });
        const mp::Comm world = proc.world_comm();
        const Choice choice =
            proc.world().coll_choice(CollOp::kBcast, world.group(), bytes);
        EXPECT_EQ(choice.algo, chain);
        EXPECT_LT(choice.predicted_s, 0.0);
        std::vector<double> data(bytes / sizeof(double), 1.0);
        world.bcast(std::span<double>(data), 0);

        mp::Comm own = world;
        CollPolicy policy;
        policy.bcast = BcastAlgo::kTwoLevel;
        own.set_coll_policy(policy);
        own.bcast(std::span<double>(data), 0);
      },
      options);
  EXPECT_EQ(runs(chain) - chain_before, cluster.size());
  EXPECT_EQ(runs(two_level) - two_level_before, cluster.size());
  // Only the reference pick above priced anything.
  EXPECT_EQ(tuner->cache_misses(), 1u);
  EXPECT_EQ(tuner->cache_hits(), 0u);
}

TEST(CollTunerTest, SelectionIsPredictedFastest) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  hnoc::NetworkModel network(cluster);
  CollTuner tuner(cluster, CollTuner::Options{});
  const std::vector<int> procs = full_roster(cluster);
  for (CollOp op : {CollOp::kBcast, CollOp::kReduce, CollOp::kAllreduce,
                    CollOp::kReduceScatter, CollOp::kAllgather,
                    CollOp::kBarrier}) {
    for (std::size_t bytes : {std::size_t{8}, std::size_t{4096},
                              std::size_t{1} << 20}) {
      double predicted = -1.0;
      const int chosen = tuner.select(op, procs, bytes, &predicted);
      ASSERT_GE(chosen, 1);
      // The representative size of the bucket containing `bytes`.
      std::size_t rep = 1;
      while (rep * 2 <= bytes) rep *= 2;
      for (int algo = 1; algo <= algo_count(op); ++algo) {
        const double cost = collective_cost(op, algo, procs, rep, network);
        EXPECT_GE(cost + 1e-15, predicted)
            << op_name(op) << ": " << algo_name(op, algo)
            << " beats the chosen " << algo_name(op, chosen);
      }
    }
  }
}

// The tuner prices link latency and bandwidth only, so a Recon that changes
// the speed estimates must not re-price any selection: a run that recons
// twice misses the memo exactly as often as one that recons once.
TEST(CollTunerTest, ReconThatChangesSpeedsAddsNoMisses) {
  const hnoc::Cluster cluster =
      hnoc::ClusterBuilder()
          .add("alpha", 100.0)
          .add("beta", 100.0, hnoc::LoadProfile({{0.2, 0.1}}))
          .add("gamma", 80.0)
          .build();
  const auto bench = [](mp::Proc& q) { q.compute(10.0); };
  const auto misses = [&](bool second_recon) {
    telemetry::metrics().reset();
    std::vector<double> before;
    std::vector<double> after;
    mp::World::run_one_per_processor(cluster, [&](mp::Proc& proc) {
      Runtime rt(proc);
      rt.recon(bench);
      const double one = 1.0;
      double sum = 0.0;
      const auto allreduce = [&] {
        proc.world_comm().allreduce(std::span<const double>(&one, 1),
                                    std::span<double>(&sum, 1),
                                    std::plus<double>());
      };
      allreduce();
      if (second_recon) {
        proc.elapse(1.0);  // past beta's load change
        if (rt.is_host()) before = rt.processor_speeds();
        rt.recon(bench);
        if (rt.is_host()) after = rt.processor_speeds();
        allreduce();
      }
      rt.finalize();
    });
    if (second_recon) {
      EXPECT_NE(before, after) << "the recon changed nothing";
    }
    return telemetry::metrics().snapshot().counter_value("coll.tuner.misses");
  };
  const double once = misses(false);
  EXPECT_GT(once, 0.0);
  EXPECT_EQ(misses(true), once);
}

// Selections must be identical whatever the mapper threading or estimator
// caching configuration: the tuner's inputs are only (op, roster, bucket).
TEST(CollTunerTest, RuntimeSelectionsAreConfigInvariant) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  using Row = std::tuple<int, int, double>;  // op, algo, predicted
  const auto collect = [&](int threads, bool cache) {
    std::vector<Row> rows;
    RuntimeConfig config;
    config.search_threads = threads;
    config.estimate_cache = cache;
    mp::World::run_one_per_processor(cluster, [&](mp::Proc& proc) {
      Runtime rt(proc, config);
      rt.recon([](mp::Proc& q) { q.compute(1.0); });
      if (rt.is_host()) {
        for (CollOp op : {CollOp::kBcast, CollOp::kReduce, CollOp::kAllreduce,
                          CollOp::kReduceScatter, CollOp::kAllgather,
                          CollOp::kBarrier}) {
          for (std::size_t bytes : {std::size_t{8}, std::size_t{4096},
                                    std::size_t{1} << 20}) {
            const Runtime::CollSelection sel = rt.coll_selection(op, bytes);
            rows.emplace_back(static_cast<int>(op), sel.algo, sel.predicted_s);
          }
        }
      }
      rt.finalize();
    });
    return rows;
  };

  const std::vector<Row> baseline = collect(1, true);
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(collect(8, true), baseline);
  EXPECT_EQ(collect(1, false), baseline);
  EXPECT_EQ(collect(8, false), baseline);
}

}  // namespace
}  // namespace hmpi::coll
