#include "sched/capacity.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "estimator/estimate_cache.hpp"
#include "estimator/plan.hpp"
#include "hnoc/cluster.hpp"
#include "support/error.hpp"
#include "sched/selector.hpp"

namespace hmpi::sched {
namespace {

using pmdl::InstanceBuilder;
using pmdl::ModelInstance;
using pmdl::ScheduleSink;

/// The whole cluster with `slots` leases per machine.
Partition with_slots(int slots) {
  Partition partition;
  partition.slots_per_machine = slots;
  return partition;
}

/// Compute-only instance of `p` equal abstract processors.
ModelInstance flat_instance(int p, double volume = 100.0) {
  InstanceBuilder b("flat");
  b.shape({p});
  for (int a = 0; a < p; ++a) b.node_volume(a, volume);
  b.scheme([p](ScheduleSink& s) {
    s.par_begin();
    for (long long a = 0; a < p; ++a) {
      s.par_iter_begin();
      const long long c[1] = {a};
      s.compute(c, 100.0);
    }
    s.par_end();
  });
  return b.build();
}

TEST(CapacityLedger, ResidualPricingFollowsLeaseCount) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(4, 100.0);
  CapacityLedger ledger(cluster, with_slots(2));

  EXPECT_EQ(ledger.total_free_slots(), 8);
  EXPECT_EQ(ledger.busy_machines(), 0);
  EXPECT_DOUBLE_EQ(ledger.residual_speed(0), 100.0);
  EXPECT_DOUBLE_EQ(ledger.overlay().speed(0), 100.0);

  ledger.lease(0, 1);
  EXPECT_EQ(ledger.leases(0), 1);
  EXPECT_EQ(ledger.free_slots(0), 1);
  EXPECT_EQ(ledger.total_free_slots(), 7);
  EXPECT_EQ(ledger.busy_machines(), 1);
  EXPECT_DOUBLE_EQ(ledger.residual_speed(0), 50.0);
  EXPECT_DOUBLE_EQ(ledger.overlay().speed(0), 50.0);

  ledger.lease(0, 2);
  EXPECT_DOUBLE_EQ(ledger.overlay().speed(0), 100.0 / 3.0);
  EXPECT_EQ(ledger.free_slots(0), 0);

  ledger.release(0, 1);
  EXPECT_DOUBLE_EQ(ledger.overlay().speed(0), 50.0);
  ledger.release(0, 2);
  EXPECT_DOUBLE_EQ(ledger.overlay().speed(0), 100.0);
  EXPECT_EQ(ledger.busy_machines(), 0);
  EXPECT_EQ(ledger.total_free_slots(), 8);
}

TEST(CapacityLedger, EveryMutationBumpsTheOverlayVersion) {
  // The EstimateCache keys on the overlay's version; a lease/release that
  // kept the version would let it serve estimates priced against stale
  // lease state (see tests/estimator/estimate_cache_test.cpp for the
  // end-to-end regression).
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2, 100.0);
  CapacityLedger ledger(cluster, Partition{});

  const std::uint64_t v0 = ledger.overlay().version();
  ledger.lease(0, 7);
  const std::uint64_t v1 = ledger.overlay().version();
  EXPECT_NE(v0, v1);
  ledger.release(0, 7);
  const std::uint64_t v2 = ledger.overlay().version();
  EXPECT_NE(v1, v2);
  EXPECT_NE(v0, v2);  // same speeds as v0, but a distinct version
  ledger.refresh_base({80.0, 80.0});
  EXPECT_NE(ledger.overlay().version(), v2);
}

TEST(CapacityLedger, RefreshBaseRepricesUnderActiveLeases) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2, 100.0);
  CapacityLedger ledger(cluster, with_slots(2));
  ledger.lease(0, 1);

  ledger.refresh_base({80.0, 40.0});
  EXPECT_DOUBLE_EQ(ledger.base_speed(0), 80.0);
  EXPECT_DOUBLE_EQ(ledger.overlay().speed(0), 40.0);  // 80 / (1 + 1 lease)
  EXPECT_DOUBLE_EQ(ledger.overlay().speed(1), 40.0);  // idle: base speed
}

TEST(CapacityLedger, PartitionRestrictsMachinesAndValidates) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(4, 100.0);
  Partition partition;
  partition.machines = {1, 2};
  partition.slots_per_machine = 1;
  CapacityLedger ledger(cluster, partition);

  EXPECT_EQ(ledger.total_free_slots(), 2);
  EXPECT_THROW(ledger.lease(0, 1), InvalidArgument);  // not in the partition
  ledger.lease(1, 1);
  EXPECT_THROW(ledger.lease(1, 2), InvalidArgument);  // no free slot
  EXPECT_THROW(ledger.release(2, 1), InvalidArgument);  // no such lease
  EXPECT_THROW(ledger.release(1, 99), InvalidArgument);  // wrong job
}

TEST(Partition, ResolveRejectsBadShapes) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(3, 100.0);
  EXPECT_THROW(
      Partition::resolve(with_slots(0), cluster),
      InvalidArgument);
  Partition bad;
  bad.machines = {0, 7};
  EXPECT_THROW(Partition::resolve(bad, cluster), InvalidArgument);
  const Partition all = Partition::resolve(Partition{}, cluster);
  EXPECT_EQ(all.machines.size(), 3u);
}

map::SearchContext context_of(est::EstimateCache* cache,
                              est::PlanCache* plans) {
  map::SearchContext context;
  context.cache = cache;
  context.plans = plans;
  return context;
}

TEST(Selector, PrefersIdleMachinesOverLeasedOnes) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2, 100.0);
  CapacityLedger ledger(cluster, with_slots(2));
  est::EstimateCache cache;
  est::PlanCache plans;
  Selector selector;

  ledger.lease(0, 1);  // machine 0 residual 50, machine 1 residual 100
  const ModelInstance one = flat_instance(1);
  const auto placement = selector.place(one, ledger, context_of(&cache, &plans));
  ASSERT_TRUE(placement.has_value());
  ASSERT_EQ(placement->machines.size(), 1u);
  EXPECT_EQ(placement->machines[0], 1);
  EXPECT_GT(placement->estimated_s, 0.0);
}

TEST(Selector, NulloptWhenFreeSlotsCannotHostTheInstance) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2, 100.0);
  CapacityLedger ledger(cluster, with_slots(1));
  est::EstimateCache cache;
  est::PlanCache plans;
  Selector selector;

  EXPECT_FALSE(
      selector.place(flat_instance(3), ledger, context_of(&cache, &plans))
          .has_value());
  // A machine's two free slots can host two abstract processors.
  CapacityLedger wide(cluster, with_slots(2));
  const auto placement =
      selector.place(flat_instance(4), wide, context_of(&cache, &plans));
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->machines.size(), 4u);
}

TEST(Selector, DeterministicForFixedLedgerState) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  CapacityLedger ledger(cluster, with_slots(2));
  ledger.lease(0, 1);
  ledger.lease(2, 1);
  est::EstimateCache cache;
  est::PlanCache plans;
  Selector selector;

  const ModelInstance inst = flat_instance(3, 250.0);
  const auto a = selector.place(inst, ledger, context_of(&cache, &plans));
  const auto b = selector.place(inst, ledger, context_of(&cache, &plans));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->machines, b->machines);
  EXPECT_EQ(a->estimated_s, b->estimated_s);  // bit-identical
}

}  // namespace
}  // namespace hmpi::sched
