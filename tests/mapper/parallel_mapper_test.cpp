// Determinism harness for the parallel, memoized mapper stack
// (docs/mapper.md): whatever SearchContext a caller supplies — no pool, a
// pool of any size, a cache or none — select() must return a bit-identical
// MappingResult. The property tests drive randomly generated models over
// randomly generated clusters so the guarantee is exercised across many
// landscapes, not just the hand-built ones in mapper_test.cpp.
#include "mapper/mapper.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "estimator/estimate_cache.hpp"
#include "hnoc/cluster.hpp"
#include "reference/estimator.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace hmpi::map {
namespace {

using pmdl::InstanceBuilder;
using pmdl::ModelInstance;
using pmdl::ScheduleSink;

/// One randomly generated scenario: cluster, network, model instance and
/// estimate options, all derived deterministically from `rng`.
struct Scenario {
  hnoc::Cluster cluster;
  hnoc::NetworkModel network;
  ModelInstance instance;
  est::EstimateOptions options;

  explicit Scenario(support::Rng& rng)
      : cluster(random_cluster(rng)),
        network(cluster),
        instance(random_instance(rng)),
        options(random_options(rng)) {}

  std::vector<Candidate> candidates() const {
    std::vector<Candidate> cs;
    for (int i = 0; i < cluster.size(); ++i) cs.push_back({i, i});
    return cs;
  }

  static hnoc::Cluster random_cluster(support::Rng& rng) {
    const int machines = static_cast<int>(rng.next_in(6, 8));
    hnoc::ClusterBuilder b;
    for (int i = 0; i < machines; ++i) {
      b.add(std::string("m").append(std::to_string(i)),
            rng.next_double_in(1.0, 200.0));
    }
    b.network(rng.next_double_in(1e-5, 1e-3), rng.next_double_in(1e6, 1e8));
    // A couple of degraded links so communication shapes the landscape.
    for (int k = 0; k < 2; ++k) {
      const int a = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(machines)));
      const int c = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(machines)));
      if (a != c) b.symmetric_link_override(a, c, rng.next_double_in(1e-4, 1e-2),
                                            rng.next_double_in(1e5, 1e6));
    }
    return b.build();
  }

  /// 4-5 abstract processors, random volumes, ring transfers plus one random
  /// extra edge; parent is abstract 0.
  static ModelInstance random_instance(support::Rng& rng) {
    const long long p = rng.next_in(4, 5);
    InstanceBuilder b("random-model");
    b.shape({p});
    for (long long a = 0; a < p; ++a) {
      b.node_volume(static_cast<int>(a), rng.next_double_in(1.0, 100.0));
    }
    std::vector<std::pair<long long, long long>> edges;
    for (long long a = 0; a < p; ++a) edges.push_back({a, (a + 1) % p});
    edges.push_back({rng.next_in(0, p - 1), rng.next_in(0, p - 1)});
    std::vector<double> bytes;
    for (const auto& e : edges) {
      const double volume =
          e.first == e.second ? 0.0 : rng.next_double_in(1e3, 1e6);
      bytes.push_back(volume);
      if (volume > 0.0) {
        b.link(static_cast<int>(e.first), static_cast<int>(e.second), volume);
      }
    }
    b.scheme([p, edges, bytes](ScheduleSink& s) {
      s.par_begin();
      for (long long a = 0; a < p; ++a) {
        s.par_iter_begin();
        const long long c[1] = {a};
        s.compute(c, 100.0);
      }
      s.par_end();
      for (std::size_t i = 0; i < edges.size(); ++i) {
        if (bytes[i] <= 0.0) continue;
        const long long from[1] = {edges[i].first};
        const long long to[1] = {edges[i].second};
        s.transfer(from, to, 100.0);
      }
    });
    return b.build();
  }

  static est::EstimateOptions random_options(support::Rng& rng) {
    est::EstimateOptions o;
    o.send_overhead_s = rng.next_double_in(0.0, 1e-4);
    o.recv_overhead_s = rng.next_double_in(0.0, 1e-4);
    return o;
  }
};

void expect_bit_identical(const MappingResult& expected,
                          const MappingResult& actual, const char* what) {
  EXPECT_EQ(expected.candidate_for_abstract, actual.candidate_for_abstract)
      << what;
  // EXPECT_EQ, not EXPECT_NEAR: the guarantee is bit-identity.
  EXPECT_EQ(expected.estimated_time, actual.estimated_time) << what;
}

TEST(ParallelExhaustive, BitIdenticalAcrossThreadCountsOnRandomScenarios) {
  support::Rng rng(2026'08'06);
  for (int trial = 0; trial < 8; ++trial) {
    Scenario s(rng);
    auto candidates = s.candidates();
    ExhaustiveMapper mapper;
    const MappingResult serial =
        mapper.select(s.instance, candidates, 0, s.network, s.options);
    for (int threads : {1, 2, 8}) {
      support::ThreadPool pool(threads);
      SearchContext context;
      context.pool = &pool;
      const MappingResult parallel = mapper.select(
          s.instance, candidates, 0, s.network, s.options, context);
      expect_bit_identical(serial, parallel, "exhaustive, pooled");
      EXPECT_EQ(parallel.stats.evaluations, serial.stats.evaluations);
    }
  }
}

TEST(ParallelExhaustive, CachedSelectionsMatchUncachedBitForBit) {
  support::Rng rng(7);
  for (int trial = 0; trial < 6; ++trial) {
    Scenario s(rng);
    auto candidates = s.candidates();
    ExhaustiveMapper mapper;
    const MappingResult uncached =
        mapper.select(s.instance, candidates, 0, s.network, s.options);
    est::EstimateCache cache;
    support::ThreadPool pool(4);
    SearchContext context;
    context.pool = &pool;
    context.cache = &cache;
    const MappingResult first =
        mapper.select(s.instance, candidates, 0, s.network, s.options, context);
    const MappingResult second =
        mapper.select(s.instance, candidates, 0, s.network, s.options, context);
    expect_bit_identical(uncached, first, "exhaustive, cold cache");
    expect_bit_identical(uncached, second, "exhaustive, warm cache");
    // Every evaluation is a cache lookup; the second run re-reads the
    // arrangements the first one already scored.
    EXPECT_EQ(first.stats.cache_hits + first.stats.cache_misses,
              first.stats.evaluations);
    EXPECT_EQ(second.stats.cache_misses, 0);
    EXPECT_EQ(second.stats.cache_hits, second.stats.evaluations);
  }
}

TEST(ParallelExhaustive, PinnedSingleSlotArrangementStillWorksInParallel) {
  // One abstract processor: the parent is the whole arrangement; the chunked
  // search must degenerate gracefully.
  support::Rng rng(11);
  Scenario s(rng);
  InstanceBuilder b("solo");
  b.shape({1});
  b.node_volume(0, 10.0);
  b.scheme([](ScheduleSink& sink) {
    const long long c[1] = {0};
    sink.compute(c, 100.0);
  });
  auto inst = b.build();
  auto candidates = s.candidates();
  support::ThreadPool pool(8);
  SearchContext context;
  context.pool = &pool;
  auto result =
      ExhaustiveMapper().select(inst, candidates, 3, s.network, s.options, context);
  EXPECT_EQ(result.candidate_for_abstract, (std::vector<int>{3}));
}

TEST(ParallelPortfolio, BitIdenticalAcrossThreadCountsOnRandomScenarios) {
  support::Rng rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    Scenario s(rng);
    auto candidates = s.candidates();
    PortfolioMapper mapper;
    const MappingResult serial =
        mapper.select(s.instance, candidates, 0, s.network, s.options);
    for (int threads : {2, 8}) {
      support::ThreadPool pool(threads);
      est::EstimateCache cache;
      SearchContext context;
      context.pool = &pool;
      context.cache = &cache;
      const MappingResult raced = mapper.select(
          s.instance, candidates, 0, s.network, s.options, context);
      expect_bit_identical(serial, raced, "portfolio, pooled+cached");
    }
  }
}

TEST(ParallelPortfolio, NeverWorseThanAnyMember) {
  support::Rng rng(5);
  for (int trial = 0; trial < 4; ++trial) {
    Scenario s(rng);
    auto candidates = s.candidates();
    const auto portfolio =
        PortfolioMapper().select(s.instance, candidates, 0, s.network, s.options);
    const auto greedy =
        GreedyMapper().select(s.instance, candidates, 0, s.network, s.options);
    const auto refined = SwapRefineMapper().select(s.instance, candidates, 0,
                                                   s.network, s.options);
    const auto annealed = AnnealingMapper().select(s.instance, candidates, 0,
                                                   s.network, s.options);
    EXPECT_LE(portfolio.estimated_time, greedy.estimated_time);
    EXPECT_LE(portfolio.estimated_time, refined.estimated_time);
    EXPECT_LE(portfolio.estimated_time, annealed.estimated_time);
  }
}

TEST(ParallelPortfolio, RestartSeedDerivationIsPinned) {
  // base xor index — changing this derivation silently changes every
  // portfolio selection, so the exact values are pinned here.
  EXPECT_EQ(PortfolioMapper::restart_seed(0x48'4d'50'49, 0), 0x48'4d'50'49u);
  EXPECT_EQ(PortfolioMapper::restart_seed(0x48'4d'50'49, 1), 0x48'4d'50'48u);
  EXPECT_EQ(PortfolioMapper::restart_seed(0x48'4d'50'49, 3), 0x48'4d'50'4au);
  EXPECT_EQ(PortfolioMapper::restart_seed(0, 7), 7u);
  // Distinct restarts must never share a trajectory.
  for (int i = 0; i < 8; ++i) {
    for (int j = i + 1; j < 8; ++j) {
      EXPECT_NE(PortfolioMapper::restart_seed(123, i),
                PortfolioMapper::restart_seed(123, j));
    }
  }
}

TEST(ParallelPortfolio, RestartZeroReproducesThePlainAnnealingMapper) {
  support::Rng rng(13);
  Scenario s(rng);
  auto candidates = s.candidates();
  PortfolioOptions only_annealing;
  only_annealing.annealing_restarts = 1;  // seed derived as base ^ 0 == base
  only_annealing.swap_refine_rounds = 1;
  const auto annealed = AnnealingMapper(only_annealing.annealing)
                            .select(s.instance, candidates, 0, s.network, s.options);
  const auto raced = PortfolioMapper(only_annealing)
                         .select(s.instance, candidates, 0, s.network, s.options);
  EXPECT_LE(raced.estimated_time, annealed.estimated_time);
}

TEST(ParallelPortfolio, RejectsInvalidOptions) {
  PortfolioOptions bad;
  bad.annealing_restarts = -1;
  EXPECT_THROW(PortfolioMapper{bad}, hmpi::InvalidArgument);
  PortfolioOptions bad_rounds;
  bad_rounds.swap_refine_rounds = 0;
  EXPECT_THROW(PortfolioMapper{bad_rounds}, hmpi::InvalidArgument);
}

TEST(ParallelMapper, HillClimbersMatchSerialUnderCacheAndPool) {
  // Swap-refine and annealing never split work across threads, but they must
  // still accept a full context and stay bit-identical under it.
  support::Rng rng(21);
  for (int trial = 0; trial < 4; ++trial) {
    Scenario s(rng);
    auto candidates = s.candidates();
    for (const Mapper* mapper :
         std::initializer_list<const Mapper*>{new SwapRefineMapper(),
                                              new AnnealingMapper()}) {
      std::unique_ptr<const Mapper> owned(mapper);
      const auto plain =
          owned->select(s.instance, candidates, 0, s.network, s.options);
      support::ThreadPool pool(8);
      est::EstimateCache cache;
      SearchContext context;
      context.pool = &pool;
      context.cache = &cache;
      const auto ctxed = owned->select(s.instance, candidates, 0, s.network,
                                       s.options, context);
      expect_bit_identical(plain, ctxed, owned->name().c_str());
    }
  }
}

/// The physical mapping a selection stands for.
std::vector<int> processors_of(const MappingResult& result,
                               const std::vector<Candidate>& candidates) {
  std::vector<int> procs;
  for (int c : result.candidate_for_abstract) {
    procs.push_back(candidates[static_cast<std::size_t>(c)].processor);
  }
  return procs;
}

TEST(CompiledScoring, SelectionsBitIdenticalAcrossPlanAndEstimateCaches) {
  // With or without a plan cache (without one, each select() compiles the
  // instance itself), cached or not, at any thread count: one selection, and
  // its estimate is the reference interpreter's price of that mapping.
  support::Rng rng(2026'08'07);
  for (int trial = 0; trial < 5; ++trial) {
    Scenario s(rng);
    auto candidates = s.candidates();
    PortfolioMapper mapper;
    const MappingResult serial =
        mapper.select(s.instance, candidates, 0, s.network, s.options);
    EXPECT_EQ(serial.estimated_time,
              est::reference::estimate_time(
                  s.instance, processors_of(serial, candidates), s.network,
                  s.options));
    for (const bool planned : {false, true}) {
      for (const bool cached : {false, true}) {
        for (int threads : {1, 2, 8}) {
          support::ThreadPool pool(threads);
          est::EstimateCache cache;
          est::PlanCache plans;
          SearchContext context;
          context.pool = &pool;
          context.cache = cached ? &cache : nullptr;
          context.plans = planned ? &plans : nullptr;
          const MappingResult got = mapper.select(
              s.instance, candidates, 0, s.network, s.options, context);
          expect_bit_identical(serial, got,
                               planned ? "plan cache" : "own compile");
          EXPECT_GT(got.stats.compiled_evaluations, 0);
          if (planned) {
            EXPECT_EQ(plans.misses(), 1);  // one compile serves all members
          }
          if (cached) {
            // Every evaluation does exactly one cache lookup.
            EXPECT_EQ(got.stats.cache_hits + got.stats.cache_misses,
                      got.stats.evaluations);
          }
        }
      }
    }
  }
}

TEST(CompiledScoring, HillClimbersMatchReferenceInterpreter) {
  support::Rng rng(31);
  for (int trial = 0; trial < 4; ++trial) {
    Scenario s(rng);
    auto candidates = s.candidates();
    for (const Mapper* mapper :
         std::initializer_list<const Mapper*>{new SwapRefineMapper(),
                                              new AnnealingMapper(),
                                              new ExhaustiveMapper()}) {
      std::unique_ptr<const Mapper> owned(mapper);
      const auto plain =
          owned->select(s.instance, candidates, 0, s.network, s.options);
      est::PlanCache plans;
      SearchContext context;
      context.plans = &plans;
      const auto fast = owned->select(s.instance, candidates, 0, s.network,
                                      s.options, context);
      expect_bit_identical(plain, fast, owned->name().c_str());
      EXPECT_EQ(fast.estimated_time,
                est::reference::estimate_time(
                    s.instance, processors_of(fast, candidates), s.network,
                    s.options))
          << owned->name();
      // One-at-a-time pricing never counts as batch work.
      EXPECT_EQ(fast.stats.batch_chunks, 0) << owned->name();
      EXPECT_EQ(fast.stats.batch_candidates, 0) << owned->name();
    }
  }
}

/// Every (threads, cache, plans) combination must reproduce the
/// no-context selection bit for bit, and a supplied estimate cache is never
/// consulted: the batch searches price every row through the kernel. Shared
/// by the beam and work-stealing suites below.
void expect_context_invariant(const Mapper& mapper, const Scenario& s,
                              const std::vector<Candidate>& candidates) {
  const MappingResult serial =
      mapper.select(s.instance, candidates, 0, s.network, s.options);
  for (int threads : {1, 2, 8}) {
    for (const bool cached : {false, true}) {
      support::ThreadPool pool(threads);
      est::EstimateCache cache;
      est::PlanCache plans;
      SearchContext context;
      context.pool = &pool;
      context.cache = cached ? &cache : nullptr;
      context.plans = &plans;
      const MappingResult got = mapper.select(s.instance, candidates, 0,
                                              s.network, s.options, context);
      expect_bit_identical(serial, got, mapper.name().c_str());
      EXPECT_EQ(got.stats.cache_hits, 0) << mapper.name();
      EXPECT_EQ(got.stats.cache_misses, 0) << mapper.name();
      EXPECT_EQ(got.stats.batch_candidates, got.stats.evaluations)
          << mapper.name();
      EXPECT_EQ(cache.size(), 0u) << mapper.name();
    }
  }
}

TEST(BeamSearch, BitIdenticalAcrossThreadsCacheAndPlans) {
  support::Rng rng(2026'08'09);
  for (int trial = 0; trial < 4; ++trial) {
    Scenario s(rng);
    expect_context_invariant(BeamMapper(), s, s.candidates());
  }
}

TEST(BeamSearch, NeverWorseThanGreedyAndRecordsBatches) {
  support::Rng rng(61);
  for (int trial = 0; trial < 4; ++trial) {
    Scenario s(rng);
    auto candidates = s.candidates();
    const auto greedy =
        GreedyMapper().select(s.instance, candidates, 0, s.network, s.options);
    const auto beam =
        BeamMapper().select(s.instance, candidates, 0, s.network, s.options);
    EXPECT_LE(beam.estimated_time, greedy.estimated_time);
    // The frontier is scored through the batch route.
    EXPECT_GT(beam.stats.batch_chunks, 0);
    EXPECT_GE(beam.stats.batch_candidates, beam.stats.batch_chunks);
  }
}

TEST(BeamSearch, RejectsInvalidOptions) {
  BeamOptions bad_width;
  bad_width.width = 0;
  EXPECT_THROW(BeamMapper{bad_width}, hmpi::InvalidArgument);
  BeamOptions bad_rounds;
  bad_rounds.max_rounds = -1;
  EXPECT_THROW(BeamMapper{bad_rounds}, hmpi::InvalidArgument);
  BeamOptions bad_top_k;
  bad_top_k.locality.top_k = 0;
  EXPECT_THROW(BeamMapper{bad_top_k}, hmpi::InvalidArgument);
}

TEST(WorkStealingAnnealing, BitIdenticalAcrossThreadsCacheAndPlans) {
  support::Rng rng(2026'08'08);
  for (int trial = 0; trial < 3; ++trial) {
    Scenario s(rng);
    expect_context_invariant(WorkStealingAnnealingMapper(), s, s.candidates());
  }
}

TEST(WorkStealingAnnealing, NeverWorseThanGreedy) {
  // Chains track their best-seen state and every chain starts from the
  // greedy selection, so the reduction can never lose to greedy.
  support::Rng rng(67);
  for (int trial = 0; trial < 4; ++trial) {
    Scenario s(rng);
    auto candidates = s.candidates();
    const auto greedy =
        GreedyMapper().select(s.instance, candidates, 0, s.network, s.options);
    const auto ws = WorkStealingAnnealingMapper().select(
        s.instance, candidates, 0, s.network, s.options);
    EXPECT_LE(ws.estimated_time, greedy.estimated_time);
  }
}

TEST(WorkStealingAnnealing, ChainSeedDerivationIsPinned) {
  // base xor golden-ratio multiples — changing this silently changes every
  // work-stealing selection, so the exact values are pinned here.
  EXPECT_EQ(WorkStealingAnnealingMapper::chain_seed(0, 0),
            0x9e3779b97f4a7c15ULL);
  EXPECT_EQ(WorkStealingAnnealingMapper::chain_seed(0, 1),
            0x3c6ef372fe94f82aULL);
  EXPECT_EQ(WorkStealingAnnealingMapper::chain_seed(7, 0),
            0x9e3779b97f4a7c12ULL);
  for (int i = 0; i < 8; ++i) {
    for (int j = i + 1; j < 8; ++j) {
      EXPECT_NE(WorkStealingAnnealingMapper::chain_seed(123, i),
                WorkStealingAnnealingMapper::chain_seed(123, j));
    }
  }
}

TEST(WorkStealingAnnealing, RejectsInvalidOptions) {
  WorkStealingOptions bad_chains;
  bad_chains.chains = 0;
  EXPECT_THROW(WorkStealingAnnealingMapper{bad_chains}, hmpi::InvalidArgument);
  WorkStealingOptions bad_chunk;
  bad_chunk.chunk = -2;
  EXPECT_THROW(WorkStealingAnnealingMapper{bad_chunk}, hmpi::InvalidArgument);
}

/// At-scale scenario: the A10 seeded heterogeneous cluster gives far more
/// candidates than PortfolioOptions::scale_threshold, so the portfolio
/// enrolls {greedy, beam, work-stealing annealing}.
struct AtScaleScenario {
  hnoc::Cluster cluster;
  hnoc::NetworkModel network;
  ModelInstance instance;
  est::EstimateOptions options;

  explicit AtScaleScenario(support::Rng& rng, int machines = 100)
      : cluster(hnoc::testbeds::large_cluster(machines)),
        network(cluster),
        instance(Scenario::random_instance(rng)),
        options(Scenario::random_options(rng)) {}

  std::vector<Candidate> candidates() const {
    std::vector<Candidate> cs;
    for (int i = 0; i < cluster.size(); ++i) cs.push_back({i, i});
    return cs;
  }
};

/// Trimmed at-scale knobs so the property loop stays fast; bit-identity must
/// hold for any tunables.
PortfolioOptions quick_scale_options() {
  PortfolioOptions o;
  o.work_stealing.annealing.iterations = 200;
  o.beam.max_rounds = 4;
  return o;
}

TEST(PortfolioAtScale, BitIdenticalAcrossThreadsCacheAndPlans) {
  support::Rng rng(2026'08'10);
  for (int trial = 0; trial < 2; ++trial) {
    AtScaleScenario s(rng);
    ASSERT_GT(static_cast<int>(s.candidates().size()),
              PortfolioOptions().scale_threshold);
    PortfolioMapper mapper(quick_scale_options());
    const MappingResult serial =
        mapper.select(s.instance, s.candidates(), 0, s.network, s.options);
    for (int threads : {1, 2, 8}) {
      for (const bool cached : {false, true}) {
        support::ThreadPool pool(threads);
        est::EstimateCache cache;
        est::PlanCache plans;
        SearchContext context;
        context.pool = &pool;
        context.cache = cached ? &cache : nullptr;
        context.plans = &plans;
        const MappingResult got = mapper.select(s.instance, s.candidates(), 0,
                                                s.network, s.options, context);
        expect_bit_identical(serial, got, "portfolio, at scale");
        // Only greedy's start goes through the cache; the batch members
        // neither probe nor fill it.
        EXPECT_LE(cache.size(), 1u);
      }
    }
  }
}

TEST(PortfolioAtScale, NeverWorseThanGreedyAndScoresInBatches) {
  support::Rng rng(73);
  AtScaleScenario s(rng);
  auto candidates = s.candidates();
  const auto greedy =
      GreedyMapper().select(s.instance, candidates, 0, s.network, s.options);
  const auto scaled = PortfolioMapper(quick_scale_options())
                          .select(s.instance, candidates, 0, s.network,
                                  s.options);
  EXPECT_LE(scaled.estimated_time, greedy.estimated_time);
  EXPECT_GT(scaled.stats.batch_chunks, 0);
  EXPECT_GE(scaled.stats.batch_candidates, scaled.stats.batch_chunks);
}

TEST(PortfolioAtScale, BelowThresholdPathIsUnchanged) {
  // At or below scale_threshold the member list — and the selection — must
  // be exactly the pre-scaling portfolio's. A threshold too high to ever
  // trigger stands in for the pre-scaling build.
  support::Rng rng(79);
  for (int trial = 0; trial < 3; ++trial) {
    Scenario s(rng);
    auto candidates = s.candidates();
    PortfolioOptions legacy;
    legacy.scale_threshold = 1 << 30;
    const auto before = PortfolioMapper(legacy).select(
        s.instance, candidates, 0, s.network, s.options);
    const auto after = PortfolioMapper().select(s.instance, candidates, 0,
                                                s.network, s.options);
    expect_bit_identical(before, after, "portfolio, below threshold");
  }
}

TEST(PortfolioAtScale, RejectsInvalidScaleOptions) {
  PortfolioOptions bad_threshold;
  bad_threshold.scale_threshold = -1;
  EXPECT_THROW(PortfolioMapper{bad_threshold}, hmpi::InvalidArgument);
  PortfolioOptions bad_beam;
  bad_beam.beam.width = 0;
  EXPECT_THROW(PortfolioMapper{bad_beam}, hmpi::InvalidArgument);
  PortfolioOptions bad_ws;
  bad_ws.work_stealing.chains = 0;
  EXPECT_THROW(PortfolioMapper{bad_ws}, hmpi::InvalidArgument);
}

TEST(ParallelMapper, StatsRecordThreadsAndWallTime) {
  support::Rng rng(3);
  Scenario s(rng);
  auto candidates = s.candidates();
  support::ThreadPool pool(4);
  SearchContext context;
  context.pool = &pool;
  auto result = ExhaustiveMapper().select(s.instance, candidates, 0, s.network,
                                          s.options, context);
  EXPECT_EQ(result.stats.threads, 4);
  EXPECT_GT(result.stats.evaluations, 0);
  EXPECT_GE(result.stats.wall_seconds, 0.0);
  EXPECT_EQ(result.stats.cache_hits, 0);  // no cache supplied
  EXPECT_DOUBLE_EQ(result.stats.hit_rate(), 0.0);
}

}  // namespace
}  // namespace hmpi::map
