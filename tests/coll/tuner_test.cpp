// CollTuner behaviour: memoization keyed on (op, size bucket, roster),
// policy/predict bypasses, the predicted-fastest guarantee, measured-feedback
// promotion, a memo that survives a Recon's speed changes, and selection
// determinism across runtime configurations (search threads, estimate
// cache) that must not influence collective choices.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <numeric>
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

TEST(CollTunerTest, ForcedPolicyBypassesPrediction) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  CollTuner tuner(cluster, CollTuner::Options{});
  CollPolicy policy;
  policy.set_choice(CollOp::kBcast, static_cast<int>(BcastAlgo::kChain));
  tuner.set_policy(policy);
  const std::vector<int> procs = full_roster(cluster);

  double predicted = 0.0;
  const int algo = tuner.select(CollOp::kBcast, procs, 1 << 20, &predicted);
  EXPECT_EQ(algo, static_cast<int>(BcastAlgo::kChain));
  EXPECT_LT(predicted, 0.0);  // no prediction on the forced path
  EXPECT_EQ(tuner.cache_misses(), 0u);
  EXPECT_EQ(tuner.cache_hits(), 0u);
}

TEST(CollTunerTest, PredictOffReturnsLegacyDefault) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  CollTuner::Options options;
  options.predict = false;
  CollTuner tuner(cluster, options);
  const std::vector<int> procs = full_roster(cluster);
  double predicted = 0.0;
  for (CollOp op : {CollOp::kBcast, CollOp::kReduce, CollOp::kAllreduce,
                    CollOp::kReduceScatter, CollOp::kAllgather,
                    CollOp::kBarrier}) {
    EXPECT_EQ(tuner.select(op, procs, 4096, &predicted), legacy_default(op));
    EXPECT_LT(predicted, 0.0);
  }
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

TEST(CollTunerTest, FeedbackPromotionReRanks) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  CollTuner::Options options;
  options.feedback = true;
  options.feedback_alpha = 1.0;  // adopt an observation immediately
  CollTuner tuner(cluster, options);
  const std::vector<int> procs = full_roster(cluster);

  double predicted = -1.0;
  const int first = tuner.select(CollOp::kAllgather, procs, 4096, &predicted);
  ASSERT_GT(predicted, 0.0);

  // Report the chosen algorithm as 100x slower than predicted; staged
  // observations change nothing until promoted at a quiescent point.
  tuner.observe(CollOp::kAllgather, first, 4096, predicted * 100.0, predicted);
  EXPECT_EQ(tuner.select(CollOp::kAllgather, procs, 4096, &predicted), first);
  tuner.promote_feedback();
  const int after = tuner.select(CollOp::kAllgather, procs, 4096, &predicted);
  EXPECT_NE(after, first) << "a 100x penalty must dethrone the choice";
}

TEST(CollTunerTest, FeedbackRatioReadsThePromotedEwma) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  CollTuner::Options options;
  options.feedback = true;
  options.feedback_alpha = 1.0;
  CollTuner tuner(cluster, options);
  const std::vector<int> procs = full_roster(cluster);

  double predicted = -1.0;
  const int algo = tuner.select(CollOp::kBcast, procs, 2048, &predicted);
  ASSERT_GT(predicted, 0.0);
  // Nothing promoted yet: the gauge source reads <= 0 (the runtime skips
  // emitting coll.feedback.* for such pairs).
  EXPECT_LE(tuner.feedback_ratio(CollOp::kBcast, algo), 0.0);

  tuner.observe(CollOp::kBcast, algo, 2048, predicted * 3.0, predicted);
  EXPECT_LE(tuner.feedback_ratio(CollOp::kBcast, algo), 0.0);  // still staged
  tuner.promote_feedback();
  // alpha = 1: the ratio is exactly measured / predicted.
  EXPECT_DOUBLE_EQ(tuner.feedback_ratio(CollOp::kBcast, algo), 3.0);
  // Out-of-range algos read as unobserved rather than throwing.
  EXPECT_LE(tuner.feedback_ratio(CollOp::kBcast, 0), 0.0);
  EXPECT_LE(tuner.feedback_ratio(CollOp::kBcast, 99), 0.0);
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
// caching configuration: the tuner's inputs are only (op, roster, bucket,
// policy).
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
