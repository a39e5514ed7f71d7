// Failure-aware runtime semantics (docs/faults.md): recon retry/timeout and
// suspect marking, degraded-mode group creation, group_fail propagation, and
// group_respawn after member death.
#include "hmpi/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <vector>

#include "hnoc/cluster.hpp"
#include "mpsim/trace.hpp"

namespace hmpi {
namespace {

using mp::Proc;
using mp::World;
using pmdl::InstanceBuilder;
using pmdl::Model;
using pmdl::ParamValue;
using pmdl::ScheduleSink;

/// Compute-only model: p abstract processors, volumes[a] units each, all in
/// parallel; parent is abstract 0 (same shape as runtime_test.cpp).
Model compute_model() {
  return Model::from_factory(
      "compute", 1, [](std::span<const ParamValue> params) {
        const auto& volumes = std::get<std::vector<long long>>(params[0]);
        InstanceBuilder b("compute");
        const auto p = static_cast<long long>(volumes.size());
        b.shape({p});
        for (int a = 0; a < p; ++a) {
          b.node_volume(a, static_cast<double>(volumes[static_cast<std::size_t>(a)]));
        }
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
      });
}

std::vector<ParamValue> volumes(int p) {
  return {pmdl::array(std::vector<long long>(static_cast<std::size_t>(p), 10))};
}

TEST(FailureRecovery, ReconTimeoutMarksProcessorSuspect) {
  // The "hung" machine is simply 100x slower: its benchmark blows both
  // attempt budgets (1s, then 2s) while the fast machines finish in 0.1s.
  hnoc::Cluster cluster = hnoc::ClusterBuilder()
                              .add("fast0", 100.0)
                              .add("fast1", 100.0)
                              .add("hung", 1.0)
                              .build();
  World::run_one_per_processor(cluster, [](Proc& p) {
    Runtime rt(p);
    RetryPolicy policy;
    policy.timeout_s = 1.0;
    policy.max_attempts = 2;
    rt.recon([](Proc& q) { q.compute(10.0); }, policy);
    EXPECT_FALSE(rt.processor_suspect(0));
    EXPECT_FALSE(rt.processor_suspect(1));
    EXPECT_TRUE(rt.processor_suspect(2));
    EXPECT_EQ(rt.rank_health(0), Health::kAlive);
    EXPECT_EQ(rt.rank_health(2), Health::kSuspect);
    EXPECT_EQ(rt.suspect_processors(), (std::vector<int>{2}));
    rt.finalize();
  });
}

TEST(FailureRecovery, SuccessfulReconRecoversSuspect) {
  mp::Tracer tracer;
  World::Options options;
  options.tracer = &tracer;
  hnoc::Cluster cluster = hnoc::ClusterBuilder()
                              .add("fast", 100.0)
                              .add("slow", 1.0)
                              .build();
  World::run_one_per_processor(
      cluster,
      [](Proc& p) {
        Runtime rt(p);
        RetryPolicy strict;
        strict.timeout_s = 0.5;
        rt.recon([](Proc& q) { q.compute(10.0); }, strict);
        EXPECT_TRUE(rt.processor_suspect(1));
        // An untimed recon demonstrates the machine is alive, just slow.
        rt.recon([](Proc& q) { q.compute(10.0); });
        EXPECT_FALSE(rt.processor_suspect(1));
        EXPECT_TRUE(rt.suspect_processors().empty());
        EXPECT_NEAR(rt.processor_speeds()[1], 0.1, 1e-9);
        rt.finalize();
      },
      options);
  bool suspected = false;
  bool recovered = false;
  for (const telemetry::CausalEvent& e : tracer.events()) {
    if (e.kind == telemetry::CausalEvent::Kind::kSuspect && e.proc == 1) {
      suspected = true;
    }
    if (e.kind == telemetry::CausalEvent::Kind::kRecover && e.proc == 1) {
      recovered = true;
    }
  }
  EXPECT_TRUE(suspected);
  EXPECT_TRUE(recovered);
}

TEST(FailureRecovery, ReconClampsNearZeroBenchmarkTime) {
  // A degenerate benchmark must not manufacture an (almost) infinite speed
  // estimate; elapsed time is clamped to kMinBenchTime before inverting.
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2, 100.0);
  World::run_one_per_processor(cluster, [](Proc& p) {
    Runtime rt(p);
    rt.recon([](Proc& q) { q.compute(1e-15); });
    for (double speed : rt.processor_speeds()) {
      EXPECT_LE(speed, 1.0 / kMinBenchTime);
    }
    rt.finalize();
  });
}

TEST(FailureRecovery, GroupCreateSkipsSuspectAndReportsDegraded) {
  hnoc::Cluster cluster = hnoc::ClusterBuilder()
                              .add("fast0", 100.0)
                              .add("fast1", 100.0)
                              .add("fast2", 100.0)
                              .add("hung", 1.0)
                              .build();
  Model model = compute_model();
  World::run_one_per_processor(cluster, [&](Proc& p) {
    Runtime rt(p);
    RetryPolicy policy;
    policy.timeout_s = 1.0;
    rt.recon([](Proc& q) { q.compute(10.0); }, policy);
    ASSERT_TRUE(rt.processor_suspect(3));

    auto group = rt.group_create(model, volumes(3));
    if (p.rank() == 3) {
      // The suspect still participates in the collective but is not drafted.
      EXPECT_FALSE(group.has_value());
    } else {
      ASSERT_TRUE(group.has_value());
      EXPECT_TRUE(group->degraded());
      EXPECT_GE(group->degraded_delta(), 0.0);
      EXPECT_EQ(std::count(group->members().begin(), group->members().end(), 3),
                0);
      rt.group_free(*group);
    }
    rt.finalize();
  });
}

TEST(FailureRecovery, SuspectReadmittedWhenModelInfeasibleWithoutIt) {
  hnoc::Cluster cluster = hnoc::ClusterBuilder()
                              .add("fast0", 100.0)
                              .add("fast1", 100.0)
                              .add("fast2", 100.0)
                              .add("hung", 1.0)
                              .build();
  Model model = compute_model();
  World::run_one_per_processor(cluster, [&](Proc& p) {
    Runtime rt(p);
    RetryPolicy policy;
    policy.timeout_s = 1.0;
    rt.recon([](Proc& q) { q.compute(10.0); }, policy);

    // Four abstract processors cannot be placed on three trusted candidates:
    // the suspect is re-admitted rather than failing the creation.
    auto group = rt.group_create(model, volumes(4));
    ASSERT_TRUE(group.has_value());
    EXPECT_TRUE(group->degraded());
    EXPECT_EQ(std::count(group->members().begin(), group->members().end(), 3),
              1);
    rt.group_free(*group);
    rt.finalize();
  });
}

TEST(FailureRecovery, TimeofReadmitsSuspectsLikeGroupCreate) {
  // Timeof predicts the group Group_create would build. Four abstract
  // processors need the suspect machine too: both re-admit it, and the
  // predictions equal the created group's estimate bit for bit.
  hnoc::Cluster cluster = hnoc::ClusterBuilder()
                              .add("fast0", 100.0)
                              .add("fast1", 100.0)
                              .add("fast2", 100.0)
                              .add("hung", 1.0)
                              .build();
  Model model = compute_model();
  World::run_one_per_processor(cluster, [&](Proc& p) {
    Runtime rt(p);
    RetryPolicy policy;
    policy.timeout_s = 1.0;
    rt.recon([](Proc& q) { q.compute(10.0); }, policy);
    ASSERT_TRUE(rt.processor_suspect(3));

    double predicted = 0.0;
    std::vector<double> batch;
    if (rt.is_host()) {
      predicted = rt.timeof(model, volumes(4));
      const std::vector<std::vector<ParamValue>> sets{volumes(3), volumes(4)};
      batch = rt.timeof_batch(model, sets);
    }
    auto group = rt.group_create(model, volumes(4));
    ASSERT_TRUE(group.has_value());
    EXPECT_EQ(std::count(group->members().begin(), group->members().end(), 3),
              1);
    if (rt.is_host()) {
      EXPECT_EQ(predicted, group->estimated_time());
      ASSERT_EQ(batch.size(), 2u);
      EXPECT_EQ(batch[1], group->estimated_time());
      // Three processors fit on the trusted machines, as before.
      EXPECT_LT(batch[0], batch[1]);
    }
    rt.group_free(*group);
    rt.finalize();
  });
}

TEST(FailureRecovery, GroupCreateExcludesDeadRankAndReportsDegraded) {
  World::Options options;
  options.faults.crashes.push_back({2, 0.005});
  Model model = compute_model();
  World::run_one_per_processor(
      hnoc::testbeds::homogeneous(4, 100.0),
      [&](Proc& p) {
        Runtime rt(p);
        if (p.rank() == 2) {
          p.compute(10.0);  // dies at t=0.005, before any group forms
          return;
        }
        if (p.rank() == 0) {
          // Sequence the failure: the host observes the death before it
          // announces the creation, so the exclusion is deterministic.
          EXPECT_THROW(p.world_comm().recv_value<int>(2, 1), PeerFailedError);
        }
        auto group = rt.group_create(model, volumes(3));
        ASSERT_TRUE(group.has_value());
        EXPECT_TRUE(group->degraded());
        EXPECT_GE(group->degraded_delta(), 0.0);
        EXPECT_EQ(group->size(), 3);
        EXPECT_EQ(std::count(group->members().begin(), group->members().end(), 2),
                  0);
        EXPECT_EQ(rt.rank_health(2), Health::kDead);
        rt.group_free(*group);
        rt.finalize();
      },
      options);
}

TEST(FailureRecovery, GroupRespawnAfterMemberDeath) {
  // Three members exchange in a ring; rank 1 dies mid-loop. Rank 2 observes
  // the death directly (PeerFailedError from its receive); rank 0 was
  // blocked on the *alive* rank 2 and is released by the context revocation
  // that rank 2's group_respawn performs. Both rebuild a 2-member group.
  World::Options options;
  options.faults.crashes.push_back({1, 1.0});
  Model model = compute_model();
  std::atomic<int> peer_failed{0};
  std::atomic<int> revoked{0};
  World::run_one_per_processor(
      hnoc::testbeds::homogeneous(3, 100.0),
      [&](Proc& p) {
        Runtime rt(p);
        auto group = rt.group_create(model, volumes(3));
        ASSERT_TRUE(group.has_value());
        EXPECT_FALSE(group->degraded());

        const mp::Comm& comm = group->comm();
        const int next = (group->rank() + 1) % group->size();
        const int prev = (group->rank() + group->size() - 1) % group->size();
        bool failed = false;
        try {
          for (int i = 0; i < 1000; ++i) {
            p.compute(1.0);  // rank 1's clock crosses t=1.0 in here
            comm.send_value(i, next, 1);
            comm.recv_value<int>(prev, 1);
          }
        } catch (const PeerFailedError&) {
          peer_failed.fetch_add(1);
          failed = true;
        } catch (const RevokedError&) {
          revoked.fetch_add(1);
          failed = true;
        }
        ASSERT_TRUE(failed) << "rank " << p.rank();

        auto rebuilt = rt.group_respawn(*group, model, volumes(2));
        ASSERT_TRUE(rebuilt.has_value());
        EXPECT_TRUE(rebuilt->degraded());
        EXPECT_EQ(rebuilt->size(), 2);
        EXPECT_EQ(rebuilt->members(), (std::vector<int>{0, 2}));

        // The rebuilt communicator works.
        const mp::Comm& comm2 = rebuilt->comm();
        const int other = 1 - rebuilt->rank();
        comm2.send_value(p.rank(), other, 2);
        EXPECT_EQ(comm2.recv_value<int>(other, 2),
                  rebuilt->members()[static_cast<std::size_t>(other)]);

        rt.group_free(*rebuilt);
        rt.finalize();
      },
      options);
  EXPECT_EQ(peer_failed.load() + revoked.load(), 2);
  EXPECT_GE(peer_failed.load(), 1);  // rank 2 always sees the death directly
}

TEST(FailureRecovery, GroupRespawnDraftsReplacementFromFreePool) {
  // Four processes, three-member group on the fast machines; when a member
  // dies the respawn drafts the previously-unselected free process.
  hnoc::Cluster cluster = hnoc::ClusterBuilder()
                              .add("fast0", 100.0)
                              .add("fast1", 100.0)
                              .add("fast2", 100.0)
                              .add("spare", 50.0)
                              .build();
  World::Options options;
  options.faults.crashes.push_back({1, 1.0});
  Model model = compute_model();
  World::run_one_per_processor(
      cluster,
      [&](Proc& p) {
        Runtime rt(p);
        rt.recon([](Proc& q) { q.compute(1.0); });
        auto group = rt.group_create(model, volumes(3));
        if (!group.has_value()) {
          // The spare stays free and joins the respawn rendezvous.
          EXPECT_EQ(p.rank(), 3);
          auto drafted = rt.group_create(model, {});
          ASSERT_TRUE(drafted.has_value());
          EXPECT_TRUE(drafted->degraded());
          rt.group_free(*drafted);
          rt.finalize();
          return;
        }
        std::set<int> initial(group->members().begin(), group->members().end());
        EXPECT_EQ(initial, (std::set<int>{0, 1, 2}));
        const mp::Comm& comm = group->comm();
        const int next = (group->rank() + 1) % group->size();
        const int prev = (group->rank() + group->size() - 1) % group->size();
        bool failed = false;
        try {
          for (int i = 0; i < 1000; ++i) {
            p.compute(1.0);
            comm.send_value(i, next, 1);
            comm.recv_value<int>(prev, 1);
          }
        } catch (const PeerFailedError&) {
          failed = true;
        } catch (const RevokedError&) {
          failed = true;
        }
        ASSERT_TRUE(failed);  // rank 1's ProcessKilledError propagates instead

        auto rebuilt = rt.group_respawn(*group, model, volumes(3));
        ASSERT_TRUE(rebuilt.has_value());
        EXPECT_TRUE(rebuilt->degraded());
        EXPECT_EQ(rebuilt->size(), 3);
        EXPECT_EQ(std::count(rebuilt->members().begin(),
                             rebuilt->members().end(), 1),
                  0);
        EXPECT_EQ(std::count(rebuilt->members().begin(),
                             rebuilt->members().end(), 3),
                  1);
        rt.group_free(*rebuilt);
        rt.finalize();
      },
      options);
}

TEST(FailureRecovery, GroupFailReleasesWithoutBarrier) {
  World::Options options;
  options.faults.crashes.push_back({2, 1.0});
  Model model = compute_model();
  World::run_one_per_processor(
      hnoc::testbeds::homogeneous(3, 100.0),
      [&](Proc& p) {
        Runtime rt(p);
        auto group = rt.group_create(model, volumes(3));
        ASSERT_TRUE(group.has_value());
        const mp::Comm& comm = group->comm();
        if (p.rank() == 2) {
          p.compute(200.0);  // dies at t=1.0
          return;
        }
        bool failed = false;
        try {
          // Both survivors block on the dying rank.
          comm.recv_value<int>(group->comm().rank_of_world(2), 1);
        } catch (const MpError&) {
          failed = true;
        }
        ASSERT_TRUE(failed);
        rt.group_fail(*group);
        EXPECT_FALSE(group->valid());
        // Membership released: the survivor is free again (host excepted).
        if (p.rank() != 0) {
          EXPECT_TRUE(rt.is_free());
        }
        rt.finalize();
      },
      options);
}

}  // namespace
}  // namespace hmpi {
