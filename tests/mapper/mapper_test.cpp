#include "mapper/mapper.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "hnoc/cluster.hpp"
#include "reference/estimator.hpp"
#include "support/error.hpp"

namespace hmpi::map {
namespace {

using pmdl::InstanceBuilder;
using pmdl::ModelInstance;
using pmdl::ScheduleSink;

est::EstimateOptions exact() {
  est::EstimateOptions o;
  o.send_overhead_s = 0.0;
  o.recv_overhead_s = 0.0;
  return o;
}

/// p unequal computation volumes, no communication, parent is abstract 0.
ModelInstance compute_only_model(std::vector<double> volumes) {
  InstanceBuilder b("compute-only");
  b.shape({static_cast<long long>(volumes.size())});
  for (std::size_t i = 0; i < volumes.size(); ++i) {
    b.node_volume(static_cast<int>(i), volumes[i]);
  }
  const auto n = static_cast<long long>(volumes.size());
  b.scheme([n](ScheduleSink& s) {
    s.par_begin();
    for (long long i = 0; i < n; ++i) {
      s.par_iter_begin();
      const long long c[1] = {i};
      s.compute(c, 100.0);
    }
    s.par_end();
  });
  return b.build();
}

std::vector<Candidate> one_per_processor(const hnoc::Cluster& cluster) {
  std::vector<Candidate> cs;
  for (int i = 0; i < cluster.size(); ++i) cs.push_back({i, i});
  return cs;
}

// Every mapper must satisfy the same basic contract.
class MapperContract : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<Mapper> make() const {
    const std::string which = GetParam();
    if (which == "exhaustive") return std::make_unique<ExhaustiveMapper>();
    if (which == "greedy") return std::make_unique<GreedyMapper>();
    if (which == "annealing") return std::make_unique<AnnealingMapper>();
    if (which == "portfolio") return std::make_unique<PortfolioMapper>();
    if (which == "beam") return std::make_unique<BeamMapper>();
    if (which == "annealing-ws") {
      return std::make_unique<WorkStealingAnnealingMapper>();
    }
    return std::make_unique<SwapRefineMapper>();
  }
};

TEST_P(MapperContract, SelectionIsInjectiveAndComplete) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  hnoc::NetworkModel net(cluster);
  auto inst = compute_only_model({5, 1, 9, 3, 7});
  auto candidates = one_per_processor(cluster);
  auto result = make()->select(inst, candidates, 0, net, exact());
  ASSERT_EQ(result.candidate_for_abstract.size(), 5u);
  std::set<int> used(result.candidate_for_abstract.begin(),
                     result.candidate_for_abstract.end());
  EXPECT_EQ(used.size(), 5u);  // injective
  for (int c : result.candidate_for_abstract) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, static_cast<int>(candidates.size()));
  }
  EXPECT_GT(result.estimated_time, 0.0);
}

TEST_P(MapperContract, ParentIsPinned) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  hnoc::NetworkModel net(cluster);
  auto inst = compute_only_model({5, 1, 9});
  auto candidates = one_per_processor(cluster);
  for (int parent = 0; parent < 3; ++parent) {
    auto result = make()->select(inst, candidates, parent, net, exact());
    EXPECT_EQ(result.candidate_for_abstract[0], parent);  // parent_index()==0
  }
}

TEST_P(MapperContract, SlowMachineExcludedWhenSurplusCandidates) {
  // 2 abstract processors, 3 candidates with speeds {10, 10, 1}: the slow
  // machine must not be selected.
  hnoc::Cluster cluster =
      hnoc::ClusterBuilder().add("a", 10.0).add("b", 10.0).add("slow", 1.0).build();
  hnoc::NetworkModel net(cluster);
  auto inst = compute_only_model({100, 100});
  auto candidates = one_per_processor(cluster);
  auto result = make()->select(inst, candidates, 0, net, exact());
  for (int c : result.candidate_for_abstract) EXPECT_NE(c, 2);
}

TEST_P(MapperContract, NotEnoughCandidatesThrows) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2);
  hnoc::NetworkModel net(cluster);
  auto inst = compute_only_model({1, 1, 1});
  auto candidates = one_per_processor(cluster);
  EXPECT_THROW(make()->select(inst, candidates, 0, net, exact()),
               hmpi::InvalidArgument);
}

TEST_P(MapperContract, ReportedTimeMatchesEstimator) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  hnoc::NetworkModel net(cluster);
  auto inst = compute_only_model({5, 1, 9, 3});
  auto candidates = one_per_processor(cluster);
  auto result = make()->select(inst, candidates, 0, net, exact());
  std::vector<int> procs;
  for (int c : result.candidate_for_abstract) {
    procs.push_back(candidates[static_cast<std::size_t>(c)].processor);
  }
  EXPECT_EQ(result.estimated_time,
            est::reference::estimate_time(inst, procs, net, exact()));
}

TEST_P(MapperContract, OneFreeSlotWithoutSpareCandidateTerminates) {
  // Two abstract processors on exactly two candidates: the parent is pinned,
  // one slot is free and no unused candidate exists, so there is no swap or
  // substitution to propose and the only arrangement is the answer.
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2);
  hnoc::NetworkModel net(cluster);
  auto inst = compute_only_model({10, 20});
  auto candidates = one_per_processor(cluster);
  auto result = make()->select(inst, candidates, 0, net, exact());
  const std::vector<int> only{0, 1};
  EXPECT_EQ(result.candidate_for_abstract, only);
  EXPECT_EQ(result.estimated_time,
            est::reference::estimate_time(inst, only, net, exact()));
}

INSTANTIATE_TEST_SUITE_P(All, MapperContract,
                         ::testing::Values("exhaustive", "greedy",
                                           "swap-refine", "annealing",
                                           "portfolio", "beam",
                                           "annealing-ws"));

TEST(AnnealingMapper, DeterministicForFixedSeed) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  hnoc::NetworkModel net(cluster);
  auto inst = compute_only_model({50, 10, 90, 30, 70});
  auto candidates = one_per_processor(cluster);
  AnnealingMapper mapper;
  auto a = mapper.select(inst, candidates, 0, net, exact());
  auto b = mapper.select(inst, candidates, 0, net, exact());
  EXPECT_EQ(a.candidate_for_abstract, b.candidate_for_abstract);
  EXPECT_DOUBLE_EQ(a.estimated_time, b.estimated_time);
}

TEST(AnnealingMapper, NeverWorseThanGreedy) {
  // Annealing keeps the best-seen selection and starts from greedy, so it
  // can only match or beat it.
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  hnoc::NetworkModel net(cluster);
  for (auto volumes : {std::vector<double>{500, 900, 100, 300},
                       std::vector<double>{10, 10, 10},
                       std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8}}) {
    auto inst = compute_only_model(volumes);
    auto candidates = one_per_processor(cluster);
    auto greedy = GreedyMapper().select(inst, candidates, 0, net, exact());
    auto annealed = AnnealingMapper().select(inst, candidates, 0, net, exact());
    EXPECT_LE(annealed.estimated_time, greedy.estimated_time + 1e-12);
  }
}

TEST(AnnealingMapper, SolvesTheCommunicationBoundCase) {
  // Same landscape where greedy is fooled (see
  // SwapRefineMapper.BeatsGreedyOnCommunicationBoundCase).
  hnoc::Cluster cluster = hnoc::ClusterBuilder()
                              .add("parent", 10.0)
                              .add("goodlink", 10.0)
                              .add("fastbadlink", 11.0)
                              .network(1e-4, 1e7)
                              .symmetric_link_override(0, 2, 0.5, 1e5)
                              .build();
  hnoc::NetworkModel net(cluster);
  auto inst = pmdl::InstanceBuilder("comm-bound")
                  .shape({2})
                  .node_volume(0, 1.0)
                  .node_volume(1, 1.0)
                  .link(0, 1, 1e6)
                  .scheme([](pmdl::ScheduleSink& s) {
                    const long long a[1] = {0}, b[1] = {1};
                    s.transfer(a, b, 100.0);
                    s.compute(b, 100.0);
                  })
                  .build();
  auto candidates = one_per_processor(cluster);
  auto best = ExhaustiveMapper().select(inst, candidates, 0, net, exact());
  auto annealed = AnnealingMapper().select(inst, candidates, 0, net, exact());
  EXPECT_DOUBLE_EQ(annealed.estimated_time, best.estimated_time);
}

TEST(GreedyMapper, MatchesVolumeToSpeed) {
  // Volumes {1, 100, 10} on speeds {5, 50, 500}: the big volume must land on
  // the fastest machine, the small one on the slowest remaining.
  hnoc::Cluster cluster =
      hnoc::ClusterBuilder().add("s", 5.0).add("m", 50.0).add("f", 500.0).build();
  hnoc::NetworkModel net(cluster);
  // Parent is abstract 0 with negligible volume; pin it to candidate 0.
  auto inst = compute_only_model({0.001, 100, 10});
  auto candidates = one_per_processor(cluster);
  auto result = GreedyMapper().select(inst, candidates, 0, net, exact());
  EXPECT_EQ(result.candidate_for_abstract[1], 2);  // 100 -> speed 500
  EXPECT_EQ(result.candidate_for_abstract[2], 1);  // 10 -> speed 50
}

TEST(ExhaustiveMapper, FindsTheOptimum) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  hnoc::NetworkModel net(cluster);
  auto inst = compute_only_model({50, 10, 90, 30});
  auto candidates = one_per_processor(cluster);
  auto best = ExhaustiveMapper().select(inst, candidates, 0, net, exact());
  auto greedy = GreedyMapper().select(inst, candidates, 0, net, exact());
  auto refined = SwapRefineMapper().select(inst, candidates, 0, net, exact());
  EXPECT_LE(best.estimated_time, greedy.estimated_time + 1e-12);
  EXPECT_LE(best.estimated_time, refined.estimated_time + 1e-12);
  EXPECT_LE(refined.estimated_time, greedy.estimated_time + 1e-12);
}

TEST(ExhaustiveMapper, RefusesHugeSearchSpaces) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(16);
  hnoc::NetworkModel net(cluster);
  auto inst = compute_only_model(std::vector<double>(12, 1.0));
  auto candidates = one_per_processor(cluster);
  EXPECT_THROW(
      ExhaustiveMapper(/*max_combinations=*/1000).select(inst, candidates, 0,
                                                         net, exact()),
      hmpi::InvalidArgument);
}

TEST(ExhaustiveMapper, SizeGuardHoldsAtTheLargestLimit) {
  // 12 slots over 1000 candidates: 999 x 998 x ... x 989 arrangements, far
  // beyond LLONG_MAX. The guard must refuse them before its running product
  // overflows (the sanitizer build stops on a signed overflow).
  hnoc::Cluster cluster = hnoc::testbeds::large_cluster(1000);
  hnoc::NetworkModel net(cluster);
  auto inst = compute_only_model(std::vector<double>(12, 1.0));
  auto candidates = one_per_processor(cluster);
  EXPECT_THROW(ExhaustiveMapper(std::numeric_limits<long long>::max())
                   .select(inst, candidates, 0, net, exact()),
               hmpi::InvalidArgument);
}

TEST(ExhaustiveMapper, RejectsALimitBelowOne) {
  EXPECT_THROW(ExhaustiveMapper(0), hmpi::InvalidArgument);
  EXPECT_THROW(ExhaustiveMapper(-1), hmpi::InvalidArgument);
  EXPECT_NO_THROW(ExhaustiveMapper(1));
}

TEST(SwapRefineMapper, BeatsGreedyOnCommunicationBoundCase) {
  // Greedy places by speed only. Candidate on proc2 is slightly faster, but
  // its link to the parent is terrible; the communication-aware mappers must
  // prefer proc1.
  hnoc::Cluster cluster = hnoc::ClusterBuilder()
                              .add("parent", 10.0)
                              .add("goodlink", 10.0)
                              .add("fastbadlink", 11.0)
                              .network(1e-4, 1e7)
                              .symmetric_link_override(0, 2, 0.5, 1e5)
                              .build();
  hnoc::NetworkModel net(cluster);
  auto inst = InstanceBuilder("comm-bound")
                  .shape({2})
                  .node_volume(0, 1.0)
                  .node_volume(1, 1.0)
                  .link(0, 1, 1e6)
                  .scheme([](ScheduleSink& s) {
                    const long long a[1] = {0}, b[1] = {1};
                    s.transfer(a, b, 100.0);
                    s.compute(b, 100.0);
                  })
                  .build();
  auto candidates = one_per_processor(cluster);

  auto greedy = GreedyMapper().select(inst, candidates, 0, net, exact());
  auto refined = SwapRefineMapper().select(inst, candidates, 0, net, exact());
  auto best = ExhaustiveMapper().select(inst, candidates, 0, net, exact());

  EXPECT_EQ(greedy.candidate_for_abstract[1], 2);   // fooled by raw speed
  EXPECT_EQ(refined.candidate_for_abstract[1], 1);  // link-aware
  EXPECT_LT(refined.estimated_time, greedy.estimated_time);
  EXPECT_DOUBLE_EQ(refined.estimated_time, best.estimated_time);
}

TEST(Mapper, DefaultMapperIsSwapRefine) {
  EXPECT_EQ(make_default_mapper()->name(), "swap-refine");
}

TEST(Mapper, UsesEstimatedNotTrueSpeeds) {
  // The network model says proc0 is slow even though the cluster says
  // otherwise; the mapper must trust the model (that is HMPI_Recon's role).
  hnoc::Cluster cluster =
      hnoc::ClusterBuilder().add("a", 100.0).add("b", 50.0).add("c", 50.0).build();
  hnoc::NetworkModel net(cluster);
  net.set_speed(0, 1.0);  // recon says proc0 is busy
  auto inst = compute_only_model({0.001, 100});
  auto candidates = one_per_processor(cluster);
  auto result = SwapRefineMapper().select(inst, candidates, 0, net, exact());
  EXPECT_NE(result.candidate_for_abstract[1], 0);
}

}  // namespace
}  // namespace hmpi::map
