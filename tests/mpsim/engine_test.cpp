// Unit tests of the event engine's public contracts (docs/simulator.md):
// env-var resolution of the stack and debug knobs, the deterministic
// tie-break rule for simultaneous events (lowest world rank runs first),
// structural deadlock detection, the ban on nested worlds, and the fiber
// stack pool (reuse across worlds, guard pages kept).
#include "mpsim/engine.hpp"

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "hnoc/cluster.hpp"
#include "mpsim/comm.hpp"
#include "support/error.hpp"
#include "telemetry/metrics.hpp"

#include "differential.hpp"
#include "../scoped_env.hpp"

namespace hmpi::mp {
namespace {

/// The InvalidArgument message `fn` throws, or "" when it does not throw.
template <typename Fn>
std::string rejection(Fn&& fn) {
  try {
    fn();
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
}

TEST(EngineResolve, ExplicitChoiceIgnoresEnv) {
  ScopedEnv env("HMPI_SIM_STACK_KB", "eight");
  EXPECT_EQ(sim::resolve_stack_bytes(1 << 20), std::size_t{1} << 20);
}

TEST(EngineResolve, StackDefaultsAndEnv) {
  // Unset and empty both mean the 512 KiB default.
  for (const char* unset : {static_cast<const char*>(nullptr), ""}) {
    ScopedEnv s("HMPI_SIM_STACK_KB", unset);
    EXPECT_EQ(sim::resolve_stack_bytes(0), 512u * 1024u);
  }
  {
    ScopedEnv s("HMPI_SIM_STACK_KB", "256");
    EXPECT_EQ(sim::resolve_stack_bytes(0), 256u * 1024u);
  }
}

TEST(EngineResolve, MalformedStackThrowsNamingTheVariable) {
  for (const char* bad :
       {"0", "-2", "eight", "8x", "99999999999999999999"}) {
    ScopedEnv env("HMPI_SIM_STACK_KB", bad);
    const std::string what = rejection([] { sim::resolve_stack_bytes(0); });
    EXPECT_NE(what.find("HMPI_SIM_STACK_KB"), std::string::npos) << bad;
    EXPECT_NE(what.find("whole decimal int >= 1"), std::string::npos) << bad;
    EXPECT_EQ(sim::resolve_stack_bytes(4096), 4096u);
  }
}

TEST(EngineResolve, RetiredEngineVariablesAreIgnored) {
  // HMPI_SIM_ENGINE and HMPI_SIM_WORKERS selected the removed thread engine
  // and event worker pool. Any value, even one they used to reject, runs
  // the world on the event engine as usual.
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2, 100.0);
  for (const char* value : {"thread", "event", "bogus", "0"}) {
    ScopedEnv engine("HMPI_SIM_ENGINE", value);
    ScopedEnv workers("HMPI_SIM_WORKERS", value);
    const double before =
        telemetry::metrics().counter("sim.runs.event").value();
    const auto result = World::run_one_per_processor(
        cluster, [](Proc& p) { p.world_comm().barrier(); });
    EXPECT_EQ(result.clocks.size(), 2u) << value;
    EXPECT_EQ(telemetry::metrics().counter("sim.runs.event").value(),
              before + 1.0)
        << value;
  }
}

/// A 2-process world in which rank 0 waits for a message never sent, so
/// the engine stalls once; returns what the stall wrote to stderr.
std::string stall_dump() {
  ::testing::internal::CaptureStderr();
  try {
    World::run_one_per_processor(
        hnoc::testbeds::homogeneous(2, 100.0), [](Proc& p) {
          if (p.rank() == 0) p.world_comm().recv_value<int>(1, 1);
        });
  } catch (const DeadlockError&) {
  }
  return ::testing::internal::GetCapturedStderr();
}

TEST(EngineDebug, FlagSpellingsTurnTheStallDumpOnAndOff) {
  for (const char* on : {"1", "true", "YES", "On"}) {
    ScopedEnv env("HMPI_SIM_DEBUG", on);
    EXPECT_NE(stall_dump().find("[sim] stall: victim rank=0"),
              std::string::npos)
        << on;
  }
  for (const char* off : {"0", "false", "No", "OFF", ""}) {
    ScopedEnv env("HMPI_SIM_DEBUG", off);
    EXPECT_EQ(stall_dump(), "") << off;
  }
}

TEST(EngineDebug, MalformedFlagThrowsNamingTheAcceptedSpellings) {
  for (const char* bad : {"2", "enable", "y"}) {
    ScopedEnv env("HMPI_SIM_DEBUG", bad);
    const std::string what = rejection([] {
      World::run_one_per_processor(hnoc::testbeds::homogeneous(1, 100.0),
                                   [](Proc&) {});
    });
    EXPECT_NE(what.find("HMPI_SIM_DEBUG"), std::string::npos) << bad;
    EXPECT_NE(what.find("1|0|true|false|yes|no|on|off"), std::string::npos)
        << bad;
  }
}

TEST(EngineTieBreak, AnySourceReceivesLowerRankFirst) {
  // The pinned determinism contract: when several fibers are runnable at the
  // same virtual time, the engine dispatches the lowest world rank first.
  // Ranks 1 and 2 send to rank 0 at identical virtual clocks over identical
  // links, so rank 1's message is always delivered first and a kAnySource
  // receiver matches it first. Repeated to catch accidental dependence on
  // heap insertion order.
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(3, 100.0);
  for (int repeat = 0; repeat < 10; ++repeat) {
    std::vector<int> order;
    World::run_one_per_processor(cluster, [&](Proc& p) {
      Comm comm = p.world_comm();
      if (p.rank() == 0) {
        for (int i = 0; i < 2; ++i) {
          Status status;
          comm.recv_value<int>(kAnySource, 5, &status);
          order.push_back(status.source);
        }
      } else {
        comm.send_value(p.rank() * 10, 0, 5);
      }
    });
    EXPECT_EQ(order, (std::vector<int>{1, 2})) << "repeat " << repeat;
  }
}

TEST(EngineTieBreak, SimultaneousComputeFinishIsRankOrdered) {
  // Same contract through the trace: equal-duration computes started at t=0
  // produce trace events sorted by (virtual time, world rank), byte for byte
  // as the thread engine recorded them.
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(4, 100.0);
  testing::expect_matches_golden(
      "EngineTieBreak.SimultaneousComputeFinishIsRankOrdered", cluster,
      {0, 1, 2, 3}, [](Proc& p) {
        p.compute(2.0);
        p.world_comm().barrier();
      });
}

TEST(EngineTieBreak, SharedLinkContentionIsDeterministic) {
  // Several processes per machine all competing for the same directed links.
  // The engine arbitrates them by virtual ready time (ties by rank), so
  // repeated runs are bit-identical.
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(3, 100.0);
  std::vector<int> placement{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2};
  auto run_once = [&] {
    return testing::run_traced(
        cluster, placement, [](Proc& p) {
          Comm comm = p.world_comm();
          const int n = p.nprocs();
          // Every rank floods rank (r+5)%n — many senders per link.
          comm.send_placeholder(4096, (p.rank() + 5) % n, 1);
          comm.recv_placeholder((p.rank() + n - 5) % n, 1);
          comm.send_placeholder(512, (p.rank() + 7) % n, 2);
          comm.recv_placeholder((p.rank() + n - 7) % n, 2);
        });
  };
  testing::EngineRun first = run_once();
  testing::EngineRun second = run_once();
  testing::expect_identical_runs(first, second);
}

TEST(EngineDeadlock, EventEngineDiagnosesStalledReceive) {
  // A receive nobody will ever satisfy: the engine detects the stall
  // structurally (no runnable fiber) and raises DeadlockError.
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2, 100.0);
  const auto stalled = [](Proc& p) {
    if (p.rank() == 0) p.world_comm().recv_value<int>(1, 1);  // never sent
  };
  EXPECT_THROW(World::run_one_per_processor(cluster, stalled), DeadlockError);
}

TEST(EngineDeadlock, ReceiveRingFailsInMillisecondsWithDefaultOptions) {
  // Every rank of a 4-process ring receives before it sends. With default
  // options the stall is found without any wall-clock wait, and the error
  // lists every rank's pending receive.
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(4, 100.0);
  const auto wall_start = std::chrono::steady_clock::now();
  std::string what;
  try {
    World::run_one_per_processor(cluster, [](Proc& p) {
      Comm comm = p.world_comm();
      const int n = p.nprocs();
      comm.recv_value<int>((p.rank() + n - 1) % n, 1);
      comm.send_value(p.rank(), (p.rank() + 1) % n, 1);
    });
    ADD_FAILURE() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    what = e.what();
  }
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
  EXPECT_LT(wall_s, 2.0);
  for (int r = 0; r < 4; ++r) {
    const std::string pending = "rank " + std::to_string(r) +
                                ": blocked recv(src=" +
                                std::to_string((r + 3) % 4) + ", tag=1";
    EXPECT_NE(what.find(pending), std::string::npos) << what;
  }
}

TEST(EngineNesting, WorldRunInsideASimulatedProcessThrows) {
  // A fiber cannot host a second engine, so a body that starts its own world
  // fails, and the outer run rethrows that error.
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2, 100.0);
  const std::string what = rejection([&] {
    World::run_one_per_processor(cluster, [&](Proc& p) {
      if (p.rank() == 1) {
        World::run_one_per_processor(cluster, [](Proc&) {});
      }
    });
  });
  EXPECT_EQ(what, "World::run cannot start inside a simulated process");
}

TEST(EngineStacks, FiberStackSizeIsConfigurable) {
  // A deliberately deep (but bounded) recursion inside each fiber, with an
  // enlarged stack. Exercises the guard-paged stack allocation path.
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2, 100.0);
  World::Options options;
  options.fiber_stack_bytes = 2 * 1024 * 1024;
  World::run_one_per_processor(
      cluster,
      [](Proc& p) {
        // ~100 frames x ~4 KiB of locals: comfortably inside 2 MiB, well
        // outside a tiny stack.
        struct Recur {
          static int deep(int depth) {
            volatile char pad[4096];
            pad[0] = static_cast<char>(depth);
            if (depth == 0) return pad[0];
            return deep(depth - 1) + 1;
          }
        };
        EXPECT_EQ(Recur::deep(100), 100);
        p.world_comm().barrier();
      },
      options);
}

double stacks_mapped() {
  return telemetry::metrics().counter("sim.stacks_mapped").value();
}

TEST(EngineStacks, BackToBackWorldsReuseStacks) {
  // Every fiber stack of the second world comes from the pool the first
  // world's fibers released theirs to.
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(8, 100.0);
  std::vector<int> placement(64);
  for (std::size_t i = 0; i < placement.size(); ++i) {
    placement[i] = static_cast<int>(i % 8);
  }
  const auto run = [&] {
    World::run(cluster, placement, [](Proc& p) { p.world_comm().barrier(); });
  };
  const double before = stacks_mapped();
  run();
  const double after_first = stacks_mapped();
  EXPECT_LE(after_first - before, 64.0);
  run();
  EXPECT_EQ(stacks_mapped(), after_first);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HMPI_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HMPI_TEST_SANITIZED 1
#endif
#endif

/// Recurses `depth` frames of about 1 KiB each. Each frame reads its
/// caller's buffer, so the calls cannot be turned into a loop.
[[gnu::noinline]] int deep_frames(int depth, volatile char* caller) {
  volatile char pad[1024];
  pad[0] = static_cast<char>(caller[0] + 1);
  if (depth == 0) return pad[0];
  return deep_frames(depth - 1, pad) + pad[0];
}

// The page range the overflowing fiber's guard page may occupy, and the
// SIGSEGV handler that reports whether the fault hit it (exit 42) or some
// other address (exit 43), which means the overflow ran past the stack.
volatile std::uintptr_t guard_lo = 0;
volatile std::uintptr_t guard_hi = 0;

void report_fault_address(int, siginfo_t* info, void*) {
  const auto addr = reinterpret_cast<std::uintptr_t>(info->si_addr);
  std::_Exit(addr >= guard_lo && addr < guard_hi ? 42 : 43);
}

TEST(EngineStacksDeathTest, OverflowOfAReusedStackFaultsInItsGuardPage) {
#if defined(HMPI_TEST_SANITIZED)
  GTEST_SKIP() << "the sanitizers take over the guard-page fault";
#else
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2, 100.0);
  World::Options options;
  options.fiber_stack_bytes = 16 * 1024;
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  // The engine rounds a stack up to whole pages, and to at least 4 of them.
  const std::uintptr_t stack =
      (std::max<std::uintptr_t>(options.fiber_stack_bytes, 4 * page) +
       page - 1) / page * page;
  // The first world leaves two stacks in the pool. In the second, rank 0
  // checks that its stack was reused (exit 3 if one was mapped), locates
  // its guard page from a local near the stack's top, and then writes 1 MiB
  // of frames: the fault must land in the guard page, not below it.
  const auto overflow_reused_stack = [&] {
    static char altstack[64 * 1024];
    stack_t ss{};
    ss.ss_sp = altstack;
    ss.ss_size = sizeof altstack;
    ::sigaltstack(&ss, nullptr);
    struct sigaction sa {};
    sa.sa_sigaction = report_fault_address;
    sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
    ::sigaction(SIGSEGV, &sa, nullptr);

    World::run_one_per_processor(
        cluster, [](Proc& p) { p.world_comm().barrier(); }, options);
    const double mapped = stacks_mapped();
    World::run_one_per_processor(
        cluster,
        [&](Proc& p) {
          if (p.rank() == 0) {
            if (stacks_mapped() != mapped) std::_Exit(3);
            volatile char seed[1] = {0};
            // This frame sits in the stack's top page or, with deep entry
            // frames, the one below; allow for both.
            const std::uintptr_t top =
                (reinterpret_cast<std::uintptr_t>(&seed[0]) | (page - 1)) + 1;
            guard_lo = top - stack - page;
            guard_hi = top - stack + page;
            deep_frames(1024, seed);
          }
          p.world_comm().barrier();
        },
        options);
  };
  EXPECT_EXIT(overflow_reused_stack(), ::testing::ExitedWithCode(42), "");
#endif
}

}  // namespace
}  // namespace hmpi::mp
