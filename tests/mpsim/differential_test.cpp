// Golden-trace suite: every program shape the simulator supports, run twice
// and compared bit-for-bit (virtual clocks, stats, failed ranks, trace CSV)
// with the thread engine's recorded output via differential.hpp.
//
// These pin the determinism contract in docs/simulator.md: heterogeneous
// p2p, every collective family, two-level topology-aware broadcast, fault
// plans (delay and crash/failover), the EM3D application and the HMPI
// runtime lifecycle.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/em3d/app.hpp"
#include "apps/em3d/parallel.hpp"
#include "hmpi/runtime.hpp"
#include "hnoc/cluster.hpp"
#include "hnoc/load_profile.hpp"
#include "mpsim/comm.hpp"
#include "pmdl/model.hpp"

#include "differential.hpp"

namespace hmpi::mp {
namespace {

using testing::expect_matches_golden;

std::vector<int> identity_placement(int n) {
  std::vector<int> placement(static_cast<std::size_t>(n));
  std::iota(placement.begin(), placement.end(), 0);
  return placement;
}

// --- p2p over the paper's heterogeneous network ---------------------------

TEST(Differential, HeterogeneousP2pRing) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  const int n = cluster.size();
  expect_matches_golden("Differential.HeterogeneousP2pRing", cluster,
                        identity_placement(n), [n](Proc& p) {
    Comm comm = p.world_comm();
    const int next = (p.rank() + 1) % n;
    const int prev = (p.rank() + n - 1) % n;
    for (int round = 0; round < 5; ++round) {
      // Unequal compute so the ranks' clocks diverge and reconverge.
      p.compute(1.0 + 0.25 * p.rank());
      std::vector<double> out(64, p.rank() * 1000.0 + round);
      comm.send(std::span<const double>(out), next, round);
      std::vector<double> in(64, -1.0);
      comm.recv(std::span<double>(in), prev, round);
      EXPECT_DOUBLE_EQ(in[0], prev * 1000.0 + round);
    }
    comm.send_value(p.rank(), next, 99);
    EXPECT_EQ(comm.recv_value<int>(prev, 99), prev);
  });
}

TEST(Differential, NonblockingAndSendrecv) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_mm_network();
  const int n = cluster.size();
  expect_matches_golden("Differential.NonblockingAndSendrecv", cluster,
                        identity_placement(n), [n](Proc& p) {
    Comm comm = p.world_comm();
    const int partner = p.rank() ^ 1;
    if (partner < n) {
      std::vector<int> out{p.rank(), p.rank() * 2};
      std::vector<int> in(2, -1);
      comm.sendrecv(std::span<const int>(out), partner, 3,
                    std::span<int>(in), partner, 3);
      EXPECT_EQ(in[0], partner);
    }
    // Placeholder traffic (pure timing, no payload).
    const int next = (p.rank() + 1) % n;
    const int prev = (p.rank() + n - 1) % n;
    comm.send_placeholder(1 << 16, next, 7);
    comm.recv_placeholder(prev, 7);
  });
}

// --- collectives ----------------------------------------------------------

TEST(Differential, CollectiveSuite) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  const int n = cluster.size();
  expect_matches_golden("Differential.CollectiveSuite", cluster,
                        identity_placement(n), [n](Proc& p) {
    Comm comm = p.world_comm();
    comm.barrier();

    std::vector<int> data(8, p.rank() == 2 ? 42 : -1);
    comm.bcast(std::span<int>(data), 2);
    for (int v : data) EXPECT_EQ(v, 42);

    double in = static_cast<double>(p.rank() + 1);
    double out = 0.0;
    comm.allreduce(std::span<const double>(&in, 1), std::span<double>(&out, 1),
                   [](double a, double b) { return a + b; });
    EXPECT_DOUBLE_EQ(out, n * (n + 1) / 2.0);

    int mine = p.rank() * 3;
    std::vector<int> all(static_cast<std::size_t>(n), -1);
    comm.allgather(std::span<const int>(&mine, 1), std::span<int>(all));
    for (int i = 0; i < n; ++i) EXPECT_EQ(all[static_cast<std::size_t>(i)], i * 3);

    std::vector<long> rs_in(static_cast<std::size_t>(n), p.rank());
    std::vector<long> rs_out(1, -1);
    comm.reduce_scatter(std::span<const long>(rs_in), std::span<long>(rs_out),
                        [](long a, long b) { return a + b; });
    EXPECT_EQ(rs_out[0], static_cast<long>(n) * (n - 1) / 2);
  });
}

TEST(Differential, SubcommunicatorsAndSplit) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(8, 100.0);
  expect_matches_golden("Differential.SubcommunicatorsAndSplit", cluster,
                        identity_placement(8), [](Proc& p) {
    Comm world = p.world_comm();
    // Odd/even split, reversed key order inside each colour.
    Comm half = world.split(p.rank() % 2, -p.rank());
    int sum_in = p.rank();
    int sum_out = 0;
    half.allreduce(std::span<const int>(&sum_in, 1), std::span<int>(&sum_out, 1),
                   [](int a, int b) { return a + b; });
    EXPECT_EQ(sum_out, p.rank() % 2 == 0 ? 0 + 2 + 4 + 6 : 1 + 3 + 5 + 7);

    if (p.rank() == 1 || p.rank() == 4 || p.rank() == 6) {
      Comm trio = Comm::create_subcomm(p, {1, 4, 6});
      int v = p.rank() == 4 ? 17 : 0;
      trio.bcast_value(v, 1);  // root: world rank 4 is trio rank 1
      EXPECT_EQ(v, 17);
    }
  });
}

TEST(Differential, TwoLevelBcastOnTwoLevelCluster) {
  // Forcing kTwoLevel over a two-level cluster exercises the LAN-collapsed
  // schedule generation (coll::two_level_groups).
  hnoc::Cluster cluster = hnoc::testbeds::two_level(3, 4, 80.0);
  World::Options options;
  options.coll.bcast = coll::BcastAlgo::kTwoLevel;
  options.coll.barrier = coll::BarrierAlgo::kTournament;
  expect_matches_golden(
      "Differential.TwoLevelBcastOnTwoLevelCluster", cluster,
      identity_placement(12),
      [](Proc& p) {
        Comm comm = p.world_comm();
        std::vector<double> payload(256, p.rank() == 0 ? 3.5 : 0.0);
        comm.bcast(std::span<double>(payload), 0);
        for (double v : payload) EXPECT_DOUBLE_EQ(v, 3.5);
        comm.barrier();
      },
      options);
}

// --- fault plans ----------------------------------------------------------

TEST(Differential, MessageDelayFaults) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(6, 100.0);
  World::Options options;
  options.faults.delay_probability = 0.5;
  options.faults.delay_s = 0.125;
  options.faults.seed = 2003;
  expect_matches_golden(
      "Differential.MessageDelayFaults", cluster, identity_placement(6),
      [](Proc& p) {
        Comm comm = p.world_comm();
        const int n = p.nprocs();
        const int next = (p.rank() + 1) % n;
        const int prev = (p.rank() + n - 1) % n;
        for (int round = 0; round < 8; ++round) {
          comm.send_value(round * 10 + p.rank(), next, round);
          EXPECT_EQ(comm.recv_value<int>(prev, round), round * 10 + prev);
        }
      },
      options);
}

TEST(Differential, LinkOutageDefersTransfers) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(3, 100.0);
  World::Options options;
  options.faults.outages.push_back({0, 1, 0.0, 0.5});
  expect_matches_golden(
      "Differential.LinkOutageDefersTransfers", cluster,
      identity_placement(3),
      [](Proc& p) {
        Comm comm = p.world_comm();
        if (p.rank() == 0) comm.send_value(11, 1, 1);
        if (p.rank() == 1) {
          EXPECT_EQ(comm.recv_value<int>(0, 1), 11);
        }
        comm.barrier();
      },
      options);
}

TEST(Differential, CrashFailoverRing) {
  // The EM3D-failover shape: rank 1 dies mid-ring at t=1.0. Its direct
  // receiver observes a fail-fast PeerFailedError; the remaining survivor is
  // starved by the stopped (but alive) peer and gets DeadlockError when the
  // world stalls. Everything must match the fixture, including which ranks
  // failed.
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(3, 100.0);
  World::Options options;
  options.faults.crashes.push_back({1, 1.0});
  std::atomic<int> failures{0};
  testing::EngineRun pinned = expect_matches_golden(
      "Differential.CrashFailoverRing", cluster, identity_placement(3),
      [&](Proc& p) {
        Comm comm = p.world_comm();
        const int n = p.nprocs();
        const int next = (p.rank() + 1) % n;
        const int prev = (p.rank() + n - 1) % n;
        bool failed = false;
        try {
          for (int i = 0; i < 1000; ++i) {
            p.compute(1.0);  // rank 1's clock crosses t=1.0 in here
            comm.send_value(i, next, 1);
            comm.recv_value<int>(prev, 1);
          }
        } catch (const PeerFailedError&) {
          failed = true;
        } catch (const DeadlockError&) {
          failed = true;
        }
        EXPECT_TRUE(failed);
        failures.fetch_add(1);
      },
      options);
  EXPECT_EQ(pinned.result.failed_ranks, (std::vector<int>{1}));
  // 2 survivors per run; expect_matches_golden ran the program twice.
  EXPECT_EQ(failures.load(), 4);
}

// --- applications and the runtime stack -----------------------------------

apps::em3d::GeneratorConfig em3d_config() {
  apps::em3d::GeneratorConfig config;
  config.nodes_per_subbody = {40, 80, 24, 60};
  config.degree = 4;
  config.remote_fraction = 0.2;
  config.seed = 7;
  return config;
}

TEST(Differential, Em3dParallelRealMode) {
  apps::em3d::System system = apps::em3d::generate(em3d_config());
  const double expected = apps::em3d::serial_run(system, 2);
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  expect_matches_golden("Differential.Em3dParallelRealMode", cluster,
                        {0, 6, 7, 8}, [&](Proc& p) {
    apps::em3d::ParallelResult result = apps::em3d::run_parallel(
        p.world_comm(), system, 2, apps::em3d::WorkMode::kReal);
    EXPECT_NEAR(result.checksum, expected, 1e-9 + 1e-12 * std::abs(expected));
  });
}

/// Compute-only model, same shape as runtime_test.cpp / observability_test.
pmdl::Model compute_model() {
  using pmdl::InstanceBuilder;
  using pmdl::ParamValue;
  using pmdl::ScheduleSink;
  return pmdl::Model::from_factory(
      "compute", 1, [](std::span<const ParamValue> params) {
        const auto& volumes = std::get<std::vector<long long>>(params[0]);
        InstanceBuilder b("compute");
        const auto p = static_cast<long long>(volumes.size());
        b.shape({p});
        for (long long a = 0; a < p; ++a) {
          b.node_volume(a,
                        static_cast<double>(volumes[static_cast<std::size_t>(a)]));
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

TEST(Differential, HmpiRuntimeLifecycle) {
  // Full runtime stack: recon benchmark, group creation (mapper + estimator
  // + collective tuner), a group collective, and teardown. This is the
  // deepest program shape in the repo — it exercises the process-local
  // storage layer (Runtime and telemetry spans per simulated process).
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  pmdl::Model model = compute_model();
  expect_matches_golden("Differential.HmpiRuntimeLifecycle", cluster,
                        identity_placement(cluster.size()), [&](Proc& p) {
    hmpi::Runtime rt(p);
    rt.recon([](Proc& q) { q.compute(1.0); });
    auto group = rt.group_create(
        model, {pmdl::array(std::vector<long long>(
                   static_cast<std::size_t>(p.nprocs()), 10))});
    if (group.has_value()) {
      double in = 1.0, out = 0.0;
      group->comm().allreduce(std::span<const double>(&in, 1),
                              std::span<double>(&out, 1),
                              [](double a, double b) { return a + b; });
      EXPECT_DOUBLE_EQ(out, static_cast<double>(group->size()));
    }
  });
}

/// `members` as "[a, b, c]".
std::string roster(const std::vector<int>& members) {
  std::string out = "[";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(members[i]);
  }
  return out + "]";
}

/// One line about `group` in hexfloat: members, estimate, degraded mode.
std::string describe(const hmpi::Group& group) {
  std::ostringstream out;
  out << std::hexfloat << "members " << roster(group.members()) << " estimate "
      << group.estimated_time() << " degraded " << group.degraded()
      << " delta " << group.degraded_delta();
  return out.str();
}

/// Per-rank report lines, joined in rank order into a fixture appendix (and
/// cleared, ready for the next run).
struct RankReport {
  explicit RankReport(int n) : lines(static_cast<std::size_t>(n)) {}
  std::vector<std::string> lines;
  std::string take() {
    std::string out;
    for (std::size_t r = 0; r < lines.size(); ++r) {
      out.append("rank ").append(std::to_string(r)).append(":");
      out.append(lines[r]).append("\n");
      lines[r].clear();
    }
    return out;
  }
};

TEST(Differential, HmpiRespawnAfterSuspectAndCrash) {
  // Failure-aware runtime: a recon timeout marks the hung machine suspect,
  // the creation skips it and reports degraded mode, a scheduled crash kills
  // a member mid-ring, and group_respawn drafts the free spare (not the
  // suspect) into a degraded replacement group, pricing the healthy
  // hypothetical for its delta.
  hnoc::Cluster cluster = hnoc::ClusterBuilder()
                              .add("fast0", 100.0)
                              .add("fast1", 100.0)
                              .add("fast2", 100.0)
                              .add("spare", 50.0)
                              .add("hung", 1.0)
                              .build();
  pmdl::Model model = compute_model();
  const auto volumes = [](int p) {
    return std::vector<pmdl::ParamValue>{pmdl::array(
        std::vector<long long>(static_cast<std::size_t>(p), 10))};
  };
  World::Options options;
  options.faults.crashes.push_back({1, 12.0});
  RankReport report(cluster.size());
  // Every member of the replacement group sums its size and frees it.
  const auto use_and_free = [](hmpi::Runtime& rt, hmpi::Group& group) {
    double in = 1.0, out = 0.0;
    group.comm().allreduce(std::span<const double>(&in, 1),
                           std::span<double>(&out, 1),
                           [](double a, double b) { return a + b; });
    EXPECT_DOUBLE_EQ(out, 3.0);
    rt.group_free(group);
  };
  expect_matches_golden(
      "Differential.HmpiRespawnAfterSuspectAndCrash", cluster,
      identity_placement(cluster.size()),
      [&](Proc& p) {
        std::string& line = report.lines[static_cast<std::size_t>(p.rank())];
        hmpi::Runtime rt(p);
        hmpi::RetryPolicy policy;
        policy.timeout_s = 1.0;
        rt.recon([](Proc& q) { q.compute(10.0); }, policy);
        std::optional<hmpi::Group> group = rt.group_create(model, volumes(3));
        if (!group) {
          // The spare and the suspect stay free and join the respawn.
          std::optional<hmpi::Group> drafted = rt.group_create(model, {});
          if (drafted) {
            line.append(" drafted ").append(describe(*drafted));
            use_and_free(rt, *drafted);
          } else {
            line += " left free";
          }
          rt.finalize();
          return;
        }
        line.append(" created ").append(describe(*group));
        const Comm& comm = group->comm();
        const int next = (group->rank() + 1) % group->size();
        const int prev = (group->rank() + group->size() - 1) % group->size();
        try {
          for (int i = 0; i < 1000; ++i) {
            p.compute(1.0);  // rank 1's clock crosses t=12 in here
            comm.send_value(i, next, 1);
            comm.recv_value<int>(prev, 1);
          }
        } catch (const PeerFailedError&) {
          line += " peer-failed";
        } catch (const RevokedError&) {
          line += " revoked";
        }
        std::optional<hmpi::Group> rebuilt =
            rt.group_respawn(*group, model, volumes(3));
        EXPECT_TRUE(rebuilt.has_value());
        if (rebuilt) {
          line.append(" respawned ").append(describe(*rebuilt));
          use_and_free(rt, *rebuilt);
        }
        rt.finalize();
      },
      options, [&] { return report.take(); });
}

TEST(Differential, HmpiAdaptationLedger) {
  // The closed adaptation loop end to end: beta's machine slows at t=0.45,
  // adapt_observe fires a divergence trigger, adapt_recon re-measures the
  // members, a migration whose state transfer costs more than it gains is
  // suppressed by the gate, the next one moves the group onto the spare
  // (with a state handoff hook and a draft cooldown on beta's machine), and
  // a forced move onto the speed-1 machine rolls back to the roster it
  // left. The parent's ledger JSON joins the fixture. Every process runs
  // the same serve-and-member loop; the parent broadcasts its ledger length
  // as the script step, so drafted and released processes stay in step.
  hnoc::Cluster cluster =
      hnoc::ClusterBuilder()
          .add("alpha", 100.0)
          .add("beta", 100.0, hnoc::LoadProfile({{0.45, 0.05}}))
          .add("gamma", 100.0)
          .add("delta", 90.0)
          .add("slow", 1.0)
          .build();
  hmpi::RuntimeConfig config;
  config.adapt.enabled = true;
  config.adapt.threshold = 0.25;
  config.adapt.ewma_alpha = 1.0;
  config.adapt.hysteresis = 2;
  config.adapt.cooldown_s = 5.0;
  pmdl::Model model = compute_model();
  const std::vector<pmdl::ParamValue> params{
      pmdl::array(std::vector<long long>(3, 10))};
  RankReport report(cluster.size());
  std::string ledger;
  expect_matches_golden(
      "Differential.HmpiAdaptationLedger", cluster,
      identity_placement(cluster.size()),
      [&](Proc& p) {
        std::string& line = report.lines[static_cast<std::size_t>(p.rank())];
        hmpi::Runtime rt(p, config);
        hmpi::adapt::AdaptDecision trigger;
        while (!rt.adapt_quiesced()) {
          std::optional<hmpi::Group> group = rt.group_create(model, params);
          if (group) line.append(" joined ").append(describe(*group));
          for (int round = 0; group; ++round) {
            group->comm().barrier();
            const double start = p.clock();
            p.compute(10.0);
            const double elapsed = p.clock() - start;
            double measured = 0.0;
            group->comm().allreduce(
                std::span<const double>(&elapsed, 1),
                std::span<double>(&measured, 1),
                [](double a, double b) { return a > b ? a : b; });
            const hmpi::adapt::AdaptDecision d =
                rt.adapt_observe(*group, measured);
            int step = rt.is_host() ? static_cast<int>(rt.adapt_ledger().size())
                                    : 0;
            if (step == 0 && !d.migrate) step = round < 20 ? -1 : 3;
            group->comm().bcast_value(step, group->parent_rank());
            hmpi::Runtime::AdaptMigrateOptions opt;
            opt.trigger = trigger;
            const std::vector<int> bad_roster{0, 4, 2};
            if (step == 0) {
              // Triggered: re-measure, then a move the transfer outprices.
              trigger = d;
              opt.trigger = d;
              rt.adapt_recon(*group, [](Proc& q) { q.compute(1.0); });
              opt.state_bytes = 1'000'000'000;
            } else if (step == 1) {
              opt.on_handoff = [&line](int old_rank,
                                       const std::vector<int>& members) {
                line.append(" handoff ").append(std::to_string(old_rank));
                line.append("->").append(roster(members));
              };
            } else if (step == 2) {
              opt.force_roster = &bad_roster;
            } else if (step == 3) {
              if (rt.is_host()) {
                std::ostringstream json;
                rt.adapt_write_ledger_json(json);
                ledger = json.str();
                rt.adapt_quiesce();
              }
              rt.group_free(*group);
              group.reset();
              break;
            }
            if (step < 0) continue;
            const hmpi::Runtime::AdaptOutcome out =
                rt.adapt_migrate(*group, model, params, opt);
            line.append(" step").append(std::to_string(step));
            if (out.migrated) line += " migrated";
            if (out.rolled_back) line += " rolled-back";
            if (out.member) {
              line.append(" ").append(describe(*group));
            } else {
              line += " released";
              group.reset();
            }
          }
        }
        rt.finalize();
      },
      {}, [&] {
        std::string out = report.take() + "ledger\n" + ledger;
        ledger.clear();
        return out;
      });
}

TEST(Differential, RingWithBarriers) {
  // Ring shifts between barriers, with per-rank compute so every round
  // reorders the ranks' clocks.
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  const int n = cluster.size();
  expect_matches_golden("Differential.RingWithBarriers", cluster,
                        identity_placement(n), [n](Proc& p) {
    Comm comm = p.world_comm();
    const int next = (p.rank() + 1) % n;
    const int prev = (p.rank() + n - 1) % n;
    for (int round = 0; round < 4; ++round) {
      p.compute(0.5 + 0.1 * p.rank());
      comm.send_value(p.rank() + round, next, round);
      comm.recv_value<int>(prev, round);
      comm.barrier();
    }
  });
}

}  // namespace
}  // namespace hmpi::mp
