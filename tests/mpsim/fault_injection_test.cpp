// Fault-injection semantics of the simulated world (docs/faults.md):
// crashes at virtual fault points, fail-fast receives against dead peers,
// link outages, deterministic message drop/delay, and the zero-cost-when-off
// guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <vector>

#include "hnoc/cluster.hpp"
#include "mpsim/comm.hpp"
#include "mpsim/trace.hpp"

namespace hmpi::mp {
namespace {

hnoc::Cluster uniform(int n) { return hnoc::testbeds::homogeneous(n, 100.0); }

TEST(FaultInjection, CrashBeforeSendRaisesPeerFailed) {
  World::Options options;
  options.faults.crashes.push_back({1, 0.005});
  std::atomic<bool> saw_peer_failed{false};
  const auto result = World::run_one_per_processor(
      uniform(2),
      [&](Proc& p) {
        Comm comm = p.world_comm();
        if (p.rank() == 1) {
          p.compute(1.0);  // dies mid-computation at t=0.005 (never sends)
          comm.send_value(7, 0, 1);
        } else {
          try {
            comm.recv_value<int>(1, 1);
          } catch (const PeerFailedError& e) {
            saw_peer_failed.store(true);
            EXPECT_EQ(e.peer_world_rank(), 1);
            EXPECT_DOUBLE_EQ(e.failure_time(), 0.005);
          }
        }
      },
      options);
  EXPECT_TRUE(saw_peer_failed.load());
  EXPECT_EQ(result.failed_ranks, (std::vector<int>{1}));
}

TEST(FaultInjection, CrashAfterSendStillDeliversBufferedMessage) {
  World::Options options;
  options.faults.crashes.push_back({1, 0.005});
  std::atomic<bool> got_value{false};
  std::atomic<bool> saw_peer_failed{false};
  World::run_one_per_processor(
      uniform(2),
      [&](Proc& p) {
        Comm comm = p.world_comm();
        if (p.rank() == 1) {
          comm.send_value(7, 0, 1);  // at t=0, before the crash
          p.compute(1.0);            // dies here
          comm.send_value(8, 0, 2);
        } else {
          got_value.store(comm.recv_value<int>(1, 1) == 7);
          try {
            comm.recv_value<int>(1, 2);
          } catch (const PeerFailedError&) {
            saw_peer_failed.store(true);
          }
        }
      },
      options);
  EXPECT_TRUE(got_value.load());
  EXPECT_TRUE(saw_peer_failed.load());
}

TEST(FaultInjection, PeerFailedRaisesFastNotAfterDeadlockTimeout) {
  // The receive fails as soon as its source dies, with PeerFailedError, not
  // later through a stall's DeadlockError.
  World::Options options;
  options.faults.crashes.push_back({1, 0.005});
  const auto wall_start = std::chrono::steady_clock::now();
  World::run_one_per_processor(
      uniform(2),
      [&](Proc& p) {
        if (p.rank() == 1) {
          p.compute(1.0);
        } else {
          EXPECT_THROW(p.world_comm().recv_value<int>(1, 1), PeerFailedError);
        }
      },
      options);
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
  EXPECT_LT(wall_s, 2.0);  // O(ms) fail-fast
}

TEST(FaultInjection, CrashEventRecordedInTrace) {
  Tracer tracer;
  World::Options options;
  options.tracer = &tracer;
  options.faults.crashes.push_back({0, 0.25});
  World::run_one_per_processor(
      uniform(2), [](Proc& p) { p.compute(100.0); }, options);
  bool found = false;
  for (const telemetry::CausalEvent& e : tracer.events()) {
    if (e.kind == telemetry::CausalEvent::Kind::kCrash) {
      found = true;
      EXPECT_EQ(e.rank, 0);
      EXPECT_DOUBLE_EQ(e.t0, 0.25);
    }
  }
  EXPECT_TRUE(found);
}

TEST(FaultInjection, LinkOutageDefersTransfer) {
  World::Options options;
  // Directed link 0 -> 1 is down until t=5; the reply path is unaffected.
  options.faults.outages.push_back({0, 1, 0.0, 5.0});
  World::run_one_per_processor(
      uniform(2),
      [](Proc& p) {
        Comm comm = p.world_comm();
        if (p.rank() == 0) {
          comm.send_value(1, 1, 1);
        } else {
          Status s;
          comm.recv_value<int>(0, 1, &s);
          // Transfer starts when the outage lifts, not at t=0.
          EXPECT_GE(s.arrival_time, 5.0);
          EXPECT_GE(p.clock(), 5.0);
        }
      },
      options);
}

TEST(FaultInjection, AvailabilityCalendarDerivesFaults) {
  // A permanently-down machine crashes its process; every survivor observes
  // it through the normal fail-fast path.
  hnoc::Cluster cluster = hnoc::ClusterBuilder()
                              .add("up", 100.0)
                              .add("doomed", 100.0)
                              .availability(hnoc::Availability().down_from(0.005))
                              .build();
  const auto result = World::run_one_per_processor(
      cluster,
      [](Proc& p) {
        if (p.rank() == 1) {
          p.compute(1.0);
        } else {
          EXPECT_THROW(p.world_comm().recv_value<int>(1, 1), PeerFailedError);
        }
      });
  EXPECT_EQ(result.failed_ranks, (std::vector<int>{1}));
}

TEST(FaultInjection, MessageDropsAreDeterministicUnderFixedSeed) {
  constexpr int kMessages = 40;
  FaultPlan plan;
  plan.drop_probability = 0.4;
  plan.seed = 12345;

  const auto run_once = [&](Tracer* tracer) {
    World::Options options;
    options.faults = plan;
    options.tracer = tracer;
    return World::run_one_per_processor(
        uniform(2),
        [&](Proc& p) {
          Comm comm = p.world_comm();
          if (p.rank() == 0) {
            for (int i = 0; i < kMessages; ++i) comm.send_value(i, 1, 1);
          } else {
            // The survivor set is a pure function of (seed, src, dst, index),
            // so the receiver can predict exactly which messages arrive —
            // and non-overtaking delivery preserves their order.
            for (std::uint64_t i = 0; i < kMessages; ++i) {
              if (plan.drops_message(0, 1, i)) continue;
              EXPECT_EQ(comm.recv_value<int>(0, 1), static_cast<int>(i));
            }
          }
        },
        options);
  };

  Tracer first_trace;
  Tracer second_trace;
  const auto first = run_once(&first_trace);
  const auto second = run_once(&second_trace);
  EXPECT_EQ(first.clocks, second.clocks);  // byte-identical virtual times

  const auto dropped_indices = [](const Tracer& tracer) {
    std::vector<double> times;
    for (const telemetry::CausalEvent& e : tracer.events()) {
      if (e.kind == telemetry::CausalEvent::Kind::kDrop) times.push_back(e.t0);
    }
    return times;
  };
  const auto drops = dropped_indices(first_trace);
  EXPECT_EQ(drops, dropped_indices(second_trace));
  EXPECT_GT(drops.size(), 0u);
  EXPECT_LT(drops.size(), static_cast<std::size_t>(kMessages));
}

TEST(FaultInjection, DelayedMessagesArriveLate) {
  World::Options options;
  options.faults.delay_probability = 1.0;  // every user message delayed
  options.faults.delay_s = 2.0;
  World::run_one_per_processor(
      uniform(2),
      [](Proc& p) {
        Comm comm = p.world_comm();
        if (p.rank() == 0) {
          comm.send_value(1, 1, 1);
        } else {
          Status s;
          comm.recv_value<int>(0, 1, &s);
          EXPECT_GE(s.arrival_time, 2.0);
        }
      },
      options);
}

TEST(FaultInjection, ZeroCostWhenOff) {
  // The same workload with (a) no plan and (b) a plan whose faults never
  // fire must produce byte-identical virtual clocks.
  const auto workload = [](Proc& p) {
    Comm comm = p.world_comm();
    p.compute(3.0);
    const int next = (p.rank() + 1) % p.nprocs();
    const int prev = (p.rank() + p.nprocs() - 1) % p.nprocs();
    for (int i = 0; i < 5; ++i) {
      comm.send_value(p.rank() * 100 + i, next, 4);
      comm.recv_value<int>(prev, 4);
      p.compute(1.0);
    }
    comm.barrier();
  };

  const auto baseline =
      World::run_one_per_processor(uniform(4), workload);

  World::Options armed;
  armed.faults.crashes.push_back({0, 1e9});           // far beyond the run
  armed.faults.outages.push_back({0, 1, 1e9, 2e9});   // never overlaps
  armed.faults.seed = 7;
  const auto with_plan =
      World::run_one_per_processor(uniform(4), workload, armed);

  ASSERT_EQ(baseline.clocks.size(), with_plan.clocks.size());
  for (std::size_t i = 0; i < baseline.clocks.size(); ++i) {
    EXPECT_EQ(baseline.clocks[i], with_plan.clocks[i]) << "rank " << i;
  }
  EXPECT_EQ(baseline.makespan, with_plan.makespan);
  EXPECT_TRUE(with_plan.failed_ranks.empty());
}

TEST(FaultInjection, DeadlockErrorEnumeratesPendingState) {
  try {
    World::run_one_per_processor(
        uniform(2),
        [](Proc& p) {
          Comm comm = p.world_comm();
          if (p.rank() == 0) {
            comm.send_value(1, 1, 9);  // tag 9: never received
          } else {
            comm.recv_value<int>(0, 5);  // tag 5: never sent
          }
        });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pending state per rank"), std::string::npos) << what;
    EXPECT_NE(what.find("blocked recv(src=0, tag=5"), std::string::npos) << what;
    EXPECT_NE(what.find("unmatched incoming send"), std::string::npos) << what;
    EXPECT_NE(what.find("tag=9"), std::string::npos) << what;
  }
}

TEST(FaultInjection, StallFailsTheSmallestExplicitTimeoutFirst) {
  // Every rank waits for a message nobody sends. Each stall fails one
  // receive: the smallest explicit timeout first, ties to the lower rank,
  // and receives without a timeout after every explicit one.
  const double timeouts[] = {kNoTimeout, 5.0, 0.5, 0.5, kNoTimeout};
  std::vector<int> order;
  World::run_one_per_processor(uniform(5), [&](Proc& p) {
    try {
      p.world_comm().recv_value<int>((p.rank() + 1) % p.nprocs(), 1, nullptr,
                                     timeouts[p.rank()]);
    } catch (const DeadlockError&) {
      order.push_back(p.rank());
    }
  });
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1, 0, 4}));
}

TEST(FaultInjection, RevokedContextUnblocksReceiver) {
  World::run_one_per_processor(
      uniform(2),
      [](Proc& p) {
        Comm comm = p.world_comm();
        if (p.rank() == 0) {
          p.world().revoke_context(comm.context());
        } else {
          EXPECT_THROW(comm.recv_value<int>(0, 1), RevokedError);
        }
      });
}

}  // namespace
}  // namespace hmpi::mp
