#include "hmpi/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "hnoc/cluster.hpp"
#include "reference/estimator.hpp"
#include "telemetry/metrics.hpp"

namespace hmpi {
namespace {

using mp::Proc;
using mp::World;
using pmdl::InstanceBuilder;
using pmdl::Model;
using pmdl::ParamValue;
using pmdl::ScheduleSink;

/// Compute-only model factory: p abstract processors, volumes[a] units each,
/// all running in parallel; parent is abstract 0.
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

/// Recon benchmark calibrated so 1 benchmark unit == 1 simulator unit.
void unit_bench(Proc& p) { p.compute(1.0); }

TEST(Runtime, InitHostAndFreeRoles) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(4, 50.0);
  World::run_one_per_processor(cluster, [](Proc& p) {
    Runtime rt(p);
    EXPECT_EQ(rt.is_host(), p.rank() == 0);
    EXPECT_EQ(rt.is_free(), p.rank() != 0);
    EXPECT_EQ(rt.world_comm().size(), 4);
    rt.finalize();
  });
}

TEST(Runtime, FreeRanksExcludesHost) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(3);
  World::run_one_per_processor(cluster, [](Proc& p) {
    Runtime rt(p);
    EXPECT_EQ(rt.free_ranks(), (std::vector<int>{1, 2}));
    rt.finalize();
  });
}

TEST(Runtime, ReconMeasuresEffectiveSpeeds) {
  hnoc::Cluster cluster = hnoc::ClusterBuilder()
                              .add("fast", 100.0)
                              .add("slow", 20.0)
                              .build();
  World::run_one_per_processor(cluster, [](Proc& p) {
    Runtime rt(p);
    rt.recon([](Proc& q) { q.compute(10.0); });  // 10 sim units per bench
    const auto speeds = rt.processor_speeds();
    // speed = 1 benchmark / elapsed = sim_speed / 10.
    EXPECT_NEAR(speeds[0], 10.0, 1e-9);
    EXPECT_NEAR(speeds[1], 2.0, 1e-9);
    rt.finalize();
  });
}

TEST(Runtime, ReconSeesExternalLoad) {
  hnoc::Cluster cluster =
      hnoc::ClusterBuilder()
          .add("idle", 100.0)
          .add("busy", 100.0, hnoc::LoadProfile::constant(0.25))
          .build();
  World::run_one_per_processor(cluster, [](Proc& p) {
    Runtime rt(p);
    rt.recon(unit_bench);
    const auto speeds = rt.processor_speeds();
    EXPECT_NEAR(speeds[0], 100.0, 1e-9);
    EXPECT_NEAR(speeds[1], 25.0, 1e-9);  // multi-user load discovered
    rt.finalize();
  });
}

TEST(Runtime, ReconTunerMissesDoNotGrowWithProcessCount) {
  // The tuner's memo key is (op, size bucket, roster machines): every rank
  // of a run asks with the same keys, and a Recon's speed update changes
  // none of them. So the tuner misses accrued by Init + Recon are
  // independent of how many processes share the machines.
  auto misses = [](int procs) {
    const hnoc::Cluster cluster = hnoc::testbeds::homogeneous(4, 50.0);
    std::vector<int> placement(static_cast<std::size_t>(procs));
    for (int r = 0; r < procs; ++r) placement[static_cast<std::size_t>(r)] = r % 4;
    const auto before = telemetry::metrics().snapshot();
    World::run(cluster, placement, [](Proc& p) {
      Runtime rt(p);
      rt.recon([](Proc& q) { q.compute(10.0); });  // speeds 50 -> 5
      rt.finalize();
    });
    return telemetry::metrics().snapshot().counter_value("coll.tuner.misses") -
           before.counter_value("coll.tuner.misses");
  };
  const double at16 = misses(16);
  EXPECT_GT(at16, 0.0);
  EXPECT_EQ(misses(64), at16);
}

TEST(Runtime, ReconRejectsZeroWorkBenchmark) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2);
  EXPECT_THROW(World::run_one_per_processor(cluster,
                                            [](Proc& p) {
                                              Runtime rt(p);
                                              rt.recon([](Proc&) {});
                                            }),
               InvalidArgument);
}

TEST(Runtime, GroupCreateSelectsAndOrdersMembers) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(5, 50.0);
  World::run_one_per_processor(cluster, [](Proc& p) {
    Runtime rt(p);
    rt.recon(unit_bench);
    Model model = compute_model();
    auto group = rt.group_create(model, {pmdl::array({100, 100, 100})});
    if (p.rank() == 0) {
      ASSERT_TRUE(group.has_value());  // the parent always belongs
      EXPECT_EQ(group->size(), 3);
      EXPECT_EQ(group->parent_rank(), 0);
      EXPECT_EQ(group->members()[0], 0);
      EXPECT_GT(group->estimated_time(), 0.0);
    }
    if (group) {
      // Group communicator is fully usable.
      int in = 1, out = 0;
      group->comm().allreduce(std::span<const int>(&in, 1),
                              std::span<int>(&out, 1),
                              [](int a, int b) { return a + b; });
      EXPECT_EQ(out, 3);
      // Members are no longer free.
      EXPECT_FALSE(rt.is_free());
      rt.group_free(*group);
    }
    rt.finalize();
  });
}

TEST(Runtime, GroupCreatePrefersFastProcessors) {
  // Host on a slow machine (pinned anyway); the two other slots must go to
  // the fast machines, never to the slow non-host ones.
  hnoc::Cluster cluster = hnoc::ClusterBuilder()
                              .add("host", 10.0)
                              .add("slow1", 1.0)
                              .add("fast1", 100.0)
                              .add("slow2", 1.0)
                              .add("fast2", 100.0)
                              .build();
  World::run_one_per_processor(cluster, [](Proc& p) {
    Runtime rt(p);
    rt.recon(unit_bench);
    Model model = compute_model();
    auto group = rt.group_create(model, {pmdl::array({100, 100, 100})});
    if (p.rank() == 0) {
      ASSERT_TRUE(group.has_value());
      std::set<int> members(group->members().begin(), group->members().end());
      EXPECT_EQ(members, (std::set<int>{0, 2, 4}));
    }
    EXPECT_EQ(group.has_value(), p.rank() == 0 || p.rank() == 2 || p.rank() == 4);
    rt.finalize();
  });
}

TEST(Runtime, HeadlineInvariantFasterThanEveryOtherGroup) {
  // The paper's claim: the HMPI-selected group executes the algorithm faster
  // than any other group of processes. Verify by exhaustive comparison of
  // the predicted times of all alternative member sets.
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  World::run_one_per_processor(cluster, [](Proc& p) {
    Runtime rt(p);
    rt.recon(unit_bench);
    Model model = compute_model();
    const std::vector<long long> volumes{500, 900, 100, 300};
    auto group = rt.group_create(model, {pmdl::array(volumes)});
    if (p.rank() == 0) {
      ASSERT_TRUE(group.has_value());
      // Compare against every injective alternative assignment.
      auto instance = model.instantiate({pmdl::array(volumes)});
      hnoc::NetworkModel net(p.cluster());
      for (int i = 0; i < 9; ++i) net.set_speed(i, rt.processor_speeds()[static_cast<std::size_t>(i)]);
      double best_alternative = 1e300;
      // Brute force: parent fixed on processor 0, choose 3 of 8 others.
      std::vector<int> mapping(4);
      mapping[0] = 0;
      for (int a = 1; a < 9; ++a)
        for (int b = 1; b < 9; ++b)
          for (int c = 1; c < 9; ++c) {
            if (a == b || b == c || a == c) continue;
            mapping[1] = a;
            mapping[2] = b;
            mapping[3] = c;
            best_alternative =
                std::min(best_alternative,
                         est::reference::estimate_time(instance, mapping, net));
          }
      EXPECT_LE(group->estimated_time(), best_alternative + 1e-12);
    }
    if (group) rt.group_free(*group);
    rt.finalize();
  });
}

TEST(Runtime, GroupFreeReturnsMembersToThePool) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(4);
  World::run_one_per_processor(cluster, [](Proc& p) {
    Runtime rt(p);
    Model model = compute_model();
    // Frees loop over creations; the host drives two successive groups.
    for (int round = 0; round < 2; ++round) {
      auto group = rt.group_create(model, {pmdl::array({10, 10})});
      if (group) {
        EXPECT_EQ(group->size(), 2);
        rt.group_free(*group);
        EXPECT_FALSE(group->valid());
      }
      // Only assert the free pool inside a barrier window: the first barrier
      // guarantees every member has freed the group, the second keeps the
      // host from racing into the next round's creation (which would mark
      // processes busy again) before the slower processes assert.
      rt.world_comm().barrier();
      EXPECT_EQ(rt.free_ranks().size(), 3u);
      rt.world_comm().barrier();
    }
    rt.finalize();
  });
}

TEST(Runtime, TimeofPredictsGroupCreateChoice) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  World::run_one_per_processor(cluster, [](Proc& p) {
    Runtime rt(p);
    rt.recon(unit_bench);
    Model model = compute_model();
    double predicted = 0.0;
    if (p.rank() == 0) predicted = rt.timeof(model, {pmdl::array({400, 200})});
    auto group = rt.group_create(model, {pmdl::array({400, 200})});
    if (p.rank() == 0) {
      ASSERT_TRUE(group.has_value());
      EXPECT_DOUBLE_EQ(predicted, group->estimated_time());
    }
    if (group) rt.group_free(*group);
    rt.finalize();
  });
}

TEST(Runtime, TimeofTracksExecutedVirtualTime) {
  // Run the modelled algorithm for real and compare with the prediction.
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  World::run_one_per_processor(cluster, [](Proc& p) {
    Runtime rt(p);
    rt.recon(unit_bench);
    Model model = compute_model();
    const std::vector<long long> volumes{800, 400, 200, 600};
    auto group = rt.group_create(model, {pmdl::array(volumes)});
    if (group) {
      group->comm().barrier();
      const double t0 = p.clock();
      p.compute(static_cast<double>(volumes[static_cast<std::size_t>(group->rank())]));
      // Group-wide makespan of the compute phase.
      double elapsed = p.clock() - t0;
      double makespan = 0.0;
      group->comm().allreduce(std::span<const double>(&elapsed, 1),
                              std::span<double>(&makespan, 1),
                              [](double a, double b) { return a > b ? a : b; });
      if (group->rank() == 0) {
        EXPECT_NEAR(group->estimated_time(), makespan, 0.05 * makespan);
      }
      rt.group_free(*group);
    }
    rt.finalize();
  });
}

TEST(Runtime, NestedGroupParenting) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(5);
  World::run_one_per_processor(cluster, [](Proc& p) {
    Runtime rt(p);
    Model model = compute_model();
    // Round 1: host creates group A of size 2 -> members {0, x}.
    auto group_a = rt.group_create(model, {pmdl::array({10, 10})});
    // Round 2: the non-host member of A parents group B; remaining frees join.
    std::optional<Group> group_b;
    if (group_a && p.rank() != 0) {
      group_b = rt.group_create(model, {pmdl::array({10, 10})});
      ASSERT_TRUE(group_b.has_value());  // parents always belong
      EXPECT_EQ(group_b->members()[0], p.rank());
    } else if (!group_a) {
      group_b = rt.group_create(model, {});  // frees follow
    }
    if (group_b) {
      int in = 1, out = 0;
      group_b->comm().allreduce(std::span<const int>(&in, 1),
                                std::span<int>(&out, 1),
                                [](int a, int b) { return a + b; });
      EXPECT_EQ(out, 2);
      rt.group_free(*group_b);
    }
    if (group_a) rt.group_free(*group_a);
    rt.finalize();
  });
}

TEST(Runtime, GroupAutoCreatePicksLargestUsefulSize) {
  // Perfectly parallel work: the best p is everything available.
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(4, 50.0);
  World::run_one_per_processor(cluster, [](Proc& p) {
    Runtime rt(p);
    rt.recon(unit_bench);
    Model model = compute_model();
    auto group = rt.group_auto_create(
        model,
        [](int p_size) {
          // Total work 1200 split evenly.
          std::vector<long long> volumes(static_cast<std::size_t>(p_size),
                                         1200 / p_size);
          return std::vector<pmdl::ParamValue>{pmdl::array(volumes)};
        },
        /*max_p=*/8);
    ASSERT_TRUE(group.has_value());  // everyone is taken
    EXPECT_EQ(group->size(), 4);
    rt.group_free(*group);
    rt.finalize();
  });
}

TEST(Runtime, GroupAutoCreateAvoidsOverDecomposition) {
  // Heavy per-pair communication: adding processes hurts; auto-create must
  // settle on a small group.
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(6, 50.0);
  Model model = Model::from_factory(
      "comm-heavy", 1, [](std::span<const pmdl::ParamValue> params) {
        const long long p = std::get<long long>(params[0]);
        InstanceBuilder b("comm-heavy");
        b.shape({p});
        for (int a = 0; a < p; ++a) b.node_volume(a, 1000.0 / static_cast<double>(p));
        for (int a = 0; a < p; ++a) {
          for (int c = 0; c < p; ++c) {
            // Halo traffic that grows with the decomposition width, so wide
            // groups are communication-bound.
            if (a != c) b.link(a, c, 2e7 * static_cast<double>(p));
          }
        }
        b.scheme([p](ScheduleSink& s) {
          s.par_begin();
          for (long long a = 0; a < p; ++a) {
            s.par_iter_begin();
            const long long ca[1] = {a};
            for (long long c = 0; c < p; ++c) {
              if (a == c) continue;
              const long long cc[1] = {c};
              s.transfer(ca, cc, 100.0);
            }
            s.compute(ca, 100.0);
          }
          s.par_end();
        });
        return b.build();
      });
  World::run_one_per_processor(cluster, [&model](Proc& p) {
    Runtime rt(p);
    rt.recon(unit_bench);
    auto group = rt.group_auto_create(
        model,
        [](int p_size) {
          return std::vector<pmdl::ParamValue>{pmdl::scalar(p_size)};
        },
        /*max_p=*/6);
    if (p.rank() == 0) {
      ASSERT_TRUE(group.has_value());
      EXPECT_LT(group->size(), 6);  // communication made full width a loss
    }
    if (group) rt.group_free(*group);
    rt.finalize();
  });
}

TEST(Runtime, GroupCreateFailsWhenTooFewProcesses) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2);
  EXPECT_THROW(
      World::run_one_per_processor(cluster,
                                   [](Proc& p) {
                                     Runtime rt(p);
                                     Model model = compute_model();
                                     rt.group_create(
                                         model, {pmdl::array({1, 1, 1, 1})});
                                   }),
      Error);
}

TEST(Runtime, DeterministicGroupSelection) {
  auto run_once = [] {
    std::vector<int> members;
    hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
    World::run_one_per_processor(cluster, [&members](Proc& p) {
      Runtime rt(p);
      rt.recon(unit_bench);
      Model model = compute_model();
      auto group = rt.group_create(model, {pmdl::array({70, 20, 50})});
      if (p.rank() == 0) members = group->members();
      if (group) rt.group_free(*group);
      rt.finalize();
    });
    return members;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace hmpi
