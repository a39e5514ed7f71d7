// Causal profiling under the simulator (docs/observability.md): the
// critical-path length telescopes to the makespan bit-identically, a
// deliberately slowed machine or link tops the blame tables, the always-on
// ring mode leaves every existing observable bit-identical to a
// profiling-off run, ring truncation degrades gracefully, and the Perfetto
// export (trace events + flow arrows) matches the thread engine's recorded
// export byte for byte (the span-nesting contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "hnoc/cluster.hpp"
#include "mpsim/comm.hpp"
#include "mpsim/trace.hpp"
#include "mpsim/world.hpp"
#include "telemetry/causal.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/critpath.hpp"

#include "differential.hpp"
#include "../scoped_env.hpp"

namespace hmpi::mp {
namespace {

using telemetry::CausalLog;
using telemetry::CriticalPathReport;
using telemetry::ProfMode;

/// An irregular but deterministic program: skewed compute, a ring exchange,
/// and a reduction-to-rank-0 chain, so the critical path crosses machines.
void mixed_program(Proc& p) {
  Comm comm = p.world_comm();
  const int me = p.rank();
  const int n = comm.size();
  p.compute(50.0 * (me % 3 + 1));
  comm.send_placeholder(4096, (me + 1) % n, 7);
  comm.recv_placeholder((me + n - 1) % n, 7);
  p.compute(25.0);
  if (me != 0) {
    comm.send_placeholder(1024, 0, 8);
  } else {
    for (int src = 1; src < n; ++src) comm.recv_placeholder(src, 8);
  }
}

std::vector<int> identity_placement(const hnoc::Cluster& cluster) {
  std::vector<int> placement(static_cast<std::size_t>(cluster.size()));
  for (int r = 0; r < cluster.size(); ++r)
    placement[static_cast<std::size_t>(r)] = r;
  return placement;
}

TEST(CausalSim, PathEqualsMakespanBitIdentically) {
  const hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  World::Options options;
  options.prof = ProfMode::kFull;
  const testing::EngineRun run = testing::expect_matches_golden(
      "CausalSim.MixedProgram", cluster, identity_placement(cluster),
      mixed_program, options);
  ASSERT_NE(run.result.causal, nullptr);
  const CriticalPathReport report =
      telemetry::analyze_critical_path(*run.result.causal);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.events_dropped, 0u);
  // Bit-identical, not approximately equal: the virtual clock only moves
  // inside recorded events, so the backward walk telescopes exactly.
  EXPECT_EQ(report.makespan_s, run.result.makespan);
  EXPECT_EQ(report.path_s, run.result.makespan);
}

/// The label (machine or link identity) with the most on-path seconds —
/// exactly the top row of tools/hmpiprof's blame table.
std::string top_blamed(const CriticalPathReport& report) {
  std::string label;
  double best = -1.0;
  for (const auto& [proc, s] : report.machine_s) {
    if (s > best) {
      best = s;
      label = "machine " + std::to_string(proc);
    }
  }
  for (const auto& [link, s] : report.link_s) {
    if (s > best) {
      best = s;
      label = "link " + std::to_string(link.first) + " -> " +
              std::to_string(link.second);
    }
  }
  return label;
}

TEST(CausalSim, SlowMachineTopsTheBlameTable) {
  // Machine 2 is 20x slower; everyone computes the same volume, so its
  // compute interval dominates the path.
  hnoc::ClusterBuilder builder;
  builder.add("fast0", 100.0).add("fast1", 100.0).add("slow", 5.0);
  builder.network(1e-6, 1e9);  // make links negligible
  const hnoc::Cluster cluster = builder.build();

  World::Options options;
  options.prof = telemetry::ProfMode::kFull;
  const auto result = World::run(
      cluster, {0, 1, 2},
      [](Proc& p) {
        Comm comm = p.world_comm();
        p.compute(100.0);
        comm.barrier();
      },
      options);
  ASSERT_NE(result.causal, nullptr);
  const CriticalPathReport report =
      telemetry::analyze_critical_path(*result.causal);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(top_blamed(report), "machine 2");
  // And the slow machine's share is decisive, not marginal.
  EXPECT_GT(report.machine_s.at(2), 0.9 * (100.0 / 5.0));
}

TEST(CausalSim, SlowLinkTopsTheBlameTable) {
  // Identical machines, but the 0 -> 1 link has a 2-second latency; the
  // ping-pong's transfer time dwarfs every compute interval.
  hnoc::ClusterBuilder builder;
  builder.add("a", 100.0).add("b", 100.0);
  builder.network(1e-6, 1e9);
  builder.link_override(0, 1, /*latency_s=*/2.0, /*bandwidth_bps=*/1e9);
  const hnoc::Cluster cluster = builder.build();

  World::Options options;
  options.prof = telemetry::ProfMode::kFull;
  const auto result = World::run(
      cluster, {0, 1},
      [](Proc& p) {
        Comm comm = p.world_comm();
        p.compute(1.0);
        if (p.rank() == 0) {
          comm.send_placeholder(1024, 1, 3);
          comm.recv_placeholder(1, 4);
        } else {
          comm.recv_placeholder(0, 3);
          comm.send_placeholder(1024, 0, 4);
        }
      },
      options);
  ASSERT_NE(result.causal, nullptr);
  const CriticalPathReport report =
      telemetry::analyze_critical_path(*result.causal);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(top_blamed(report), "link 0 -> 1");
  EXPECT_GT(report.link_s.at({0, 1}), 2.0);
}

TEST(CausalSim, DefaultRingModeLeavesTraceBitIdentical) {
  // The always-on ring log must be a pure observer: with HMPI_PROF unset,
  // clocks and stats match a profiling-off run exactly. A traced world keeps
  // its whole log whatever `prof` asks for, so its clocks, stats and trace
  // CSV do not depend on the mode either.
  ScopedEnv env("HMPI_PROF", nullptr);
  const hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  auto run_once = [&](ProfMode prof, bool traced) {
    World::Options options;
    options.prof = prof;
    if (traced) {
      return testing::run_traced(cluster, identity_placement(cluster),
                                 mixed_program, options);
    }
    testing::EngineRun run;
    run.result = World::run(cluster, identity_placement(cluster),
                            mixed_program, options);
    return run;
  };
  const testing::EngineRun ring = run_once(ProfMode::kAuto, false);  // kRing
  const testing::EngineRun off = run_once(ProfMode::kOff, false);
  ASSERT_NE(ring.result.causal, nullptr);
  EXPECT_EQ(ring.result.causal->mode(), ProfMode::kRing);
  EXPECT_EQ(off.result.causal->mode(), ProfMode::kOff);
  testing::expect_identical_runs(ring, off);

  const testing::EngineRun traced_ring = run_once(ProfMode::kAuto, true);
  const testing::EngineRun traced_off = run_once(ProfMode::kOff, true);
  EXPECT_EQ(traced_ring.result.causal->mode(), ProfMode::kFull);
  EXPECT_EQ(traced_off.result.causal->mode(), ProfMode::kFull);
  testing::expect_identical_runs(traced_ring, traced_off);
  EXPECT_EQ(traced_ring.result.clocks, ring.result.clocks);
}

/// More events per rank than the ring holds, message delays, elapses and a
/// collective: every kind an untraced log keeps.
void long_program(Proc& p) {
  Comm comm = p.world_comm();
  const int me = p.rank();
  const int n = comm.size();
  for (int i = 0; i < 120; ++i) {
    p.compute(2.0 * (me % 3 + 1));
    if (i % 10 == 0) p.elapse(1e-4);
    comm.send_placeholder(256, (me + 1) % n, 3);
    comm.recv_placeholder((me + n - 1) % n, 3);
  }
  comm.barrier();
}

TEST(CausalSim, UntracedLogsKeepTheEventsTheyAlwaysKept) {
  // Pinned from the code that recorded a trace and a causal log side by
  // side: with no tracer, the ring and the full log retain the same events
  // and yield the same report, bit for bit.
  const hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  auto run_once = [&](ProfMode prof) {
    World::Options options;
    options.prof = prof;
    options.faults.delay_probability = 0.2;
    options.faults.delay_s = 1e-3;
    options.faults.seed = 7;
    return World::run(cluster, identity_placement(cluster), long_program,
                      options);
  };
  const World::RunResult ring = run_once(ProfMode::kRing);
  const World::RunResult full = run_once(ProfMode::kFull);
  EXPECT_EQ(ring.makespan, 0x1.400343236b409p+6);
  EXPECT_EQ(full.makespan, ring.makespan);
  EXPECT_EQ(ring.causal->size(), 2304u);
  EXPECT_EQ(full.causal->size(), 3420u);

  const CriticalPathReport r = telemetry::analyze_critical_path(*ring.causal);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.events_dropped, 1116u);
  EXPECT_EQ(r.segments.size(), 262u);
  EXPECT_EQ(r.end_rank, 6);
  EXPECT_EQ(r.makespan_s, 0x1.400343236b409p+6);
  EXPECT_EQ(r.path_s, 0x1.aaaf8d8352798p+5);
  EXPECT_EQ(r.compute_s, 0x1.aaac4e18d95dp+5);
  EXPECT_EQ(r.transfer_s, 0x1.870394dfcp-11);
  EXPECT_EQ(r.overhead_s, 0x1.b866e43dp-11);
  EXPECT_EQ(r.gap_s, 0x1.aaadf187080f4p+4);

  const CriticalPathReport f = telemetry::analyze_critical_path(*full.causal);
  EXPECT_TRUE(f.complete);
  EXPECT_EQ(f.events_dropped, 0u);
  EXPECT_EQ(f.segments.size(), 385u);
  EXPECT_EQ(f.end_rank, 6);
  EXPECT_EQ(f.path_s, 0x1.400343236b409p+6);
  EXPECT_EQ(f.compute_s, 0x1.40013a92a3068p+6);
  EXPECT_EQ(f.transfer_s, 0x1.870394dfcp-11);
  EXPECT_EQ(f.overhead_s, 0x1.450efdcb25p-10);
  EXPECT_EQ(f.gap_s, 0.0);
  for (const CriticalPathReport* report : {&r, &f}) {
    EXPECT_EQ(report->machine_s.size(), 1u);
    EXPECT_EQ(report->link_s.size(), 6u);
    EXPECT_EQ(report->coll_s.size(), 1u);
  }
}

TEST(CausalSim, RingTruncationReportsIncompleteWithGap) {
  // More events per rank than the ring holds: the walk must stop at the
  // horizon and account the missing prefix as a gap, never mis-telescope.
  const hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2);
  World::Options options;
  options.prof = telemetry::ProfMode::kRing;
  const auto result = World::run(
      cluster, {0, 1},
      [](Proc& p) {
        for (int i = 0; i < 2 * static_cast<int>(
                                CausalLog::kDefaultRingCapacity);
             ++i) {
          p.compute(1.0);
        }
      },
      options);
  ASSERT_NE(result.causal, nullptr);
  const CriticalPathReport report =
      telemetry::analyze_critical_path(*result.causal);
  EXPECT_FALSE(report.complete);
  EXPECT_GT(report.events_dropped, 0u);
  EXPECT_GT(report.gap_s, 0.0);
  EXPECT_EQ(report.makespan_s, result.makespan);
  EXPECT_DOUBLE_EQ(report.path_s + report.gap_s, report.makespan_s);
}

TEST(CausalSim, PerfettoExportMatchesItsFixture) {
  // The span-nesting contract: the full Perfetto document — tracer 'X'/'i'
  // events plus the causal flow arrows — matches the thread engine's
  // recorded export byte for byte, on every run. mixed_program uses only
  // virtual-time kinds, so no wall-clock masking is needed.
  const hnoc::Cluster cluster = hnoc::testbeds::two_level(2, 3, 80.0);
  auto export_once = [&] {
    Tracer tracer;
    World::Options options;
    options.tracer = &tracer;
    options.prof = telemetry::ProfMode::kFull;
    const auto result = World::run(cluster, identity_placement(cluster),
                                   mixed_program, options);
    auto events = to_chrome_events(tracer.events());
    auto flows = telemetry::causal_flow_events(*result.causal);
    events.insert(events.end(), flows.begin(), flows.end());
    std::ostringstream os;
    telemetry::write_chrome_trace(os, std::move(events));
    return os.str();
  };

  const std::string first = export_once();
  const std::string diff = testing::first_difference(
      testing::read_golden("CausalSim.MixedProgramPerfetto.json"), first);
  EXPECT_TRUE(diff.empty()) << "export differs from its fixture at " << diff;
  EXPECT_EQ(first, export_once());
}

TEST(CausalSim, CrashLeavesAMarkInTheLog) {
  // A rank killed by the fault plan records a kCrash event from its
  // own timeline, so post-mortems can place the death on the virtual clock.
  const hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2);
  World::Options options;
  options.prof = telemetry::ProfMode::kFull;
  options.faults.crashes.push_back({.world_rank = 1, .time = 5.0});
  const auto result = World::run(
      cluster, {0, 1},
      [](Proc& p) {
        for (int i = 0; i < 100; ++i) p.compute(10.0);
      },
      options);
  ASSERT_NE(result.causal, nullptr);
  const auto events = result.causal->events_of(1);
  const auto mark = std::find_if(events.begin(), events.end(), [](const auto& e) {
    return e.kind == telemetry::CausalEvent::Kind::kCrash;
  });
  ASSERT_NE(mark, events.end());
  EXPECT_GE(mark->t0, 5.0);
}

}  // namespace
}  // namespace hmpi::mp
