// Causal log and critical-path analyzer units (docs/observability.md):
// HMPI_PROF mode resolution, ring rotation and drop accounting, the
// synthetic-DAG path walk (telescoping to the makespan, blame attribution,
// ring-horizon truncation), the `{"critical_path": {...}}` JSON shape, the
// crit.* gauge export, and Perfetto flow-event pairing.
#include "telemetry/causal.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "support/error.hpp"
#include "telemetry/critpath.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

#include "../scoped_env.hpp"

namespace hmpi::telemetry {
namespace {

// ---------------------------------------------------------------------------
// Mode resolution.
// ---------------------------------------------------------------------------

TEST(ProfModeResolution, UnsetDefaultsToRing) {
  ScopedEnv env("HMPI_PROF", nullptr);
  EXPECT_EQ(resolve_prof_mode(ProfMode::kAuto), ProfMode::kRing);
}

TEST(ProfModeResolution, EnvSpellings) {
  for (const char* v : {"0", "off", "false", "no", "OFF", "No"}) {
    ScopedEnv env("HMPI_PROF", v);
    EXPECT_EQ(resolve_prof_mode(ProfMode::kAuto), ProfMode::kOff) << v;
  }
  for (const char* v : {"1", "on", "true", "yes", "full", "ON", "Full"}) {
    ScopedEnv env("HMPI_PROF", v);
    EXPECT_EQ(resolve_prof_mode(ProfMode::kAuto), ProfMode::kFull) << v;
  }
  // An empty value means unset: the always-on ring.
  for (const char* v : {"ring", "RING", ""}) {
    ScopedEnv env("HMPI_PROF", v);
    EXPECT_EQ(resolve_prof_mode(ProfMode::kAuto), ProfMode::kRing) << v;
  }
  {
    // An unrecognised spelling throws instead of falling back to the ring.
    ScopedEnv env("HMPI_PROF", "banana");
    try {
      resolve_prof_mode(ProfMode::kAuto);
      ADD_FAILURE() << "HMPI_PROF=banana was accepted";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("HMPI_PROF"), std::string::npos) << what;
      EXPECT_NE(what.find("0|off|false|no|1|on|true|yes|full|ring"),
                std::string::npos)
          << what;
    }
  }
}

TEST(ProfModeResolution, ExplicitModesIgnoreEnv) {
  ScopedEnv env("HMPI_PROF", "full");
  EXPECT_EQ(resolve_prof_mode(ProfMode::kOff), ProfMode::kOff);
  EXPECT_EQ(resolve_prof_mode(ProfMode::kRing), ProfMode::kRing);
}

// ---------------------------------------------------------------------------
// Ring storage.
// ---------------------------------------------------------------------------

CausalEvent compute_event(int rank, double t0, double t1) {
  CausalEvent e;
  e.kind = CausalEvent::Kind::kCompute;
  e.rank = rank;
  e.proc = rank;
  e.t0 = t0;
  e.t1 = t1;
  return e;
}

TEST(CausalLog, RingOverwritesOldestAndCountsDrops) {
  CausalLog log({0}, ProfMode::kRing, /*ring_capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    log.record(0, compute_event(0, i, i + 1));
  }
  const auto events = log.events_of(0);
  ASSERT_EQ(events.size(), 4u);
  // Oldest surviving first: events 2..5 remain, 0 and 1 were overwritten.
  EXPECT_DOUBLE_EQ(events.front().t0, 2.0);
  EXPECT_DOUBLE_EQ(events.back().t1, 6.0);
  EXPECT_EQ(log.dropped_of(0), 2u);
  EXPECT_EQ(log.size(), 4u);
}

TEST(CausalLog, FullModeKeepsEverything) {
  CausalLog log({0}, ProfMode::kFull, /*ring_capacity=*/4);
  for (int i = 0; i < 100; ++i) log.record(0, compute_event(0, i, i + 1));
  EXPECT_EQ(log.events_of(0).size(), 100u);
  EXPECT_EQ(log.dropped_of(0), 0u);
}

TEST(CausalLog, OffModeRecordsNothing) {
  CausalLog log({0, 1}, ProfMode::kOff);
  EXPECT_FALSE(log.enabled());
  log.record(0, compute_event(0, 0.0, 1.0));
  EXPECT_EQ(log.size(), 0u);
}

TEST(CausalLog, OutOfRangeRankIsIgnored) {
  CausalLog log({0, 1}, ProfMode::kFull);
  log.record(-1, compute_event(-1, 0.0, 1.0));
  log.record(2, compute_event(2, 0.0, 1.0));
  EXPECT_EQ(log.size(), 0u);
}

TEST(CausalLog, OnlyATracedLogKeepsTracedOnlyKinds) {
  CausalEvent instant = compute_event(0, 1.0, 1.0);
  instant.kind = CausalEvent::Kind::kMapperSearch;
  ASSERT_TRUE(event_spec(instant.kind).traced_only);

  CausalLog full({0}, ProfMode::kFull);
  full.record(0, compute_event(0, 0.0, 1.0));
  full.record(0, instant);
  EXPECT_EQ(full.size(), 1u);  // the compute only

  // A traced log keeps everything, whatever mode it was asked for.
  CausalLog traced({0}, ProfMode::kOff, /*ring_capacity=*/1, /*traced=*/true);
  EXPECT_EQ(traced.mode(), ProfMode::kFull);
  traced.record(0, compute_event(0, 0.0, 1.0));
  traced.record(0, instant);
  ASSERT_EQ(traced.size(), 2u);
  EXPECT_EQ(traced.events_of(0)[1].kind, CausalEvent::Kind::kMapperSearch);
}

TEST(CausalLog, ProcOfReadsThePlacement) {
  CausalLog log({4, 2, 4}, ProfMode::kRing);
  EXPECT_EQ(log.ranks(), 3);
  EXPECT_EQ(log.proc_of(0), 4);
  EXPECT_EQ(log.proc_of(1), 2);
  EXPECT_EQ(log.proc_of(-1), -1);
  EXPECT_EQ(log.proc_of(3), -1);
}

// ---------------------------------------------------------------------------
// Synthetic path walk. Two ranks, one message:
//   rank 0 (machine 0): compute [0, 1], send [1, 1.1] -> arrival 1.6
//   rank 1 (machine 1): recv   [0, 1.7] (arrival 1.6), compute [1.7, 2.0]
// The path must telescope 2.0 -> 0 through the message edge.
// ---------------------------------------------------------------------------

CausalLog two_rank_log() {
  CausalLog log({0, 1}, ProfMode::kFull);
  log.record(0, compute_event(0, 0.0, 1.0));
  CausalEvent send;
  send.kind = CausalEvent::Kind::kSend;
  send.rank = 0;
  send.proc = 0;
  send.peer = 1;
  send.seq = 0;
  send.bytes = 1000;
  send.t0 = 1.0;
  send.t1 = 1.1;
  send.value = 1.6;  // arrival
  log.record(0, send);
  CausalEvent recv;
  recv.kind = CausalEvent::Kind::kRecv;
  recv.rank = 1;
  recv.proc = 1;
  recv.peer = 0;
  recv.seq = 0;
  recv.t0 = 0.0;
  recv.t1 = 1.7;
  recv.value = 1.6;  // arrival
  log.record(1, recv);
  log.record(1, compute_event(1, 1.7, 2.0));
  return log;
}

TEST(CriticalPath, TelescopesToTheMakespan) {
  const CriticalPathReport report = analyze_critical_path(two_rank_log());
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.end_rank, 1);
  EXPECT_DOUBLE_EQ(report.makespan_s, 2.0);
  // Bit-identical, not approximate: adjacent segments share clock values.
  EXPECT_EQ(report.path_s, report.makespan_s);
  EXPECT_EQ(report.events_dropped, 0u);

  // Chronological segments: compute(0) send transfer recv_ovh compute(1).
  ASSERT_EQ(report.segments.size(), 5u);
  EXPECT_EQ(report.segments[0].kind, PathSegment::Kind::kCompute);
  EXPECT_EQ(report.segments[1].kind, PathSegment::Kind::kSendOverhead);
  EXPECT_EQ(report.segments[2].kind, PathSegment::Kind::kTransfer);
  EXPECT_EQ(report.segments[3].kind, PathSegment::Kind::kRecvOverhead);
  EXPECT_EQ(report.segments[4].kind, PathSegment::Kind::kCompute);
  for (std::size_t i = 1; i < report.segments.size(); ++i) {
    EXPECT_DOUBLE_EQ(report.segments[i - 1].t1, report.segments[i].t0) << i;
  }

  // Blame: machine seconds to each end, all message seconds to link 0 -> 1
  // (the receive overhead charges the link that delivered the message).
  EXPECT_DOUBLE_EQ(report.machine_s.at(0), 1.0);
  EXPECT_DOUBLE_EQ(report.machine_s.at(1), 0.3);
  EXPECT_DOUBLE_EQ(report.link_s.at({0, 1}), 0.1 + 0.5 + 0.1);
  EXPECT_DOUBLE_EQ(report.compute_s, 1.3);
  EXPECT_DOUBLE_EQ(report.transfer_s, 0.5);
  EXPECT_DOUBLE_EQ(report.overhead_s, 0.2);
  EXPECT_DOUBLE_EQ(report.gap_s, 0.0);
}

TEST(CriticalPath, RingHorizonTruncatesWithGap) {
  // Capacity 2 keeps only the last two events of rank 0: the walk cannot
  // reach t = 0 and must report the unattributed prefix as a gap.
  CausalLog log({0}, ProfMode::kRing, /*ring_capacity=*/2);
  for (int i = 0; i < 5; ++i) log.record(0, compute_event(0, i, i + 1));
  const CriticalPathReport report = analyze_critical_path(log);
  EXPECT_FALSE(report.complete);
  EXPECT_DOUBLE_EQ(report.makespan_s, 5.0);
  EXPECT_DOUBLE_EQ(report.path_s, 2.0);  // the two surviving events
  EXPECT_DOUBLE_EQ(report.gap_s, 3.0);
  EXPECT_EQ(report.events_dropped, 3u);
  ASSERT_FALSE(report.segments.empty());
  EXPECT_EQ(report.segments.front().kind, PathSegment::Kind::kGap);
}

TEST(CriticalPath, MarksStayOffThePath) {
  CausalLog log({0}, ProfMode::kFull);
  log.record(0, compute_event(0, 0.0, 1.0));
  CausalEvent mark;
  mark.kind = CausalEvent::Kind::kCrash;
  mark.rank = 0;
  mark.proc = 0;
  mark.t0 = mark.t1 = 1.0;
  log.record(0, mark);
  const CriticalPathReport report = analyze_critical_path(log);
  EXPECT_TRUE(report.complete);
  EXPECT_DOUBLE_EQ(report.makespan_s, 1.0);
  ASSERT_EQ(report.segments.size(), 1u);
  EXPECT_EQ(report.segments[0].kind, PathSegment::Kind::kCompute);
}

TEST(CriticalPath, EmptyLogIsTriviallyComplete) {
  const CriticalPathReport on = analyze_critical_path(
      CausalLog({0, 1}, ProfMode::kFull));
  EXPECT_TRUE(on.complete);
  EXPECT_DOUBLE_EQ(on.makespan_s, 0.0);
  const CriticalPathReport off = analyze_critical_path(
      CausalLog({0, 1}, ProfMode::kOff));
  EXPECT_FALSE(off.complete);  // a disabled log has nothing to say
}

TEST(CriticalPath, CollectiveAnnotationsAccumulate) {
  CausalLog log({0}, ProfMode::kFull);
  CausalEvent e = compute_event(0, 0.0, 1.0);
  e.coll_op = 2;
  e.coll_algo = 1;
  log.record(0, e);
  const CriticalPathReport report = analyze_critical_path(log);
  ASSERT_EQ(report.coll_s.size(), 1u);
  EXPECT_DOUBLE_EQ(report.coll_s.at({2, 1}), 1.0);
}

// ---------------------------------------------------------------------------
// Exports.
// ---------------------------------------------------------------------------

TEST(CriticalPath, JsonReportShape) {
  const CriticalPathReport report = analyze_critical_path(two_rank_log());
  std::ostringstream os;
  write_critpath_json(os, report);
  const auto doc = parse_json(os.str());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* cp = doc->find("critical_path");
  ASSERT_NE(cp, nullptr);
  ASSERT_TRUE(cp->is_object());
  const JsonValue* complete = cp->find("complete");
  ASSERT_NE(complete, nullptr);
  EXPECT_EQ(complete->type, JsonValue::Type::kBool);
  EXPECT_TRUE(complete->boolean);
  const JsonValue* path_s = cp->find("path_s");
  ASSERT_NE(path_s, nullptr);
  EXPECT_DOUBLE_EQ(path_s->number, 2.0);
  const JsonValue* links = cp->find("links");
  ASSERT_NE(links, nullptr);
  ASSERT_EQ(links->array.size(), 1u);
  EXPECT_DOUBLE_EQ(links->array[0].find("seconds")->number, 0.7);
  const JsonValue* segments = cp->find("segments");
  ASSERT_NE(segments, nullptr);
  EXPECT_EQ(segments->array.size(), 5u);
}

TEST(CriticalPath, GaugesLandInTheRegistry) {
  MetricsRegistry reg;
  report_to_metrics(analyze_critical_path(two_rank_log()), reg);
  const auto snap = reg.snapshot();
  auto gauge = [&](const std::string& name) {
    for (const auto& [n, v] : snap.gauges) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "missing gauge " << name;
    return 0.0;
  };
  EXPECT_DOUBLE_EQ(gauge("crit.path_seconds"), 2.0);
  EXPECT_DOUBLE_EQ(gauge("crit.makespan_seconds"), 2.0);
  EXPECT_DOUBLE_EQ(gauge("crit.complete"), 1.0);
  EXPECT_DOUBLE_EQ(gauge("crit.machine.0.seconds"), 1.0);
  EXPECT_DOUBLE_EQ(gauge("crit.link.0.1.seconds"), 0.7);
}

TEST(CriticalPath, FlowEventsPairSendsWithReceives) {
  const auto flows = causal_flow_events(two_rank_log());
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[0].ph, 's');
  EXPECT_EQ(flows[1].ph, 'f');
  EXPECT_EQ(flows[0].flow_id, flows[1].flow_id);
  EXPECT_EQ(flows[0].tid, 0);  // start on the sender's timeline
  EXPECT_EQ(flows[1].tid, 1);  // finish on the receiver's
  EXPECT_DOUBLE_EQ(flows[0].ts_us, 1.0 * 1e6);
  EXPECT_DOUBLE_EQ(flows[1].ts_us, 1.7 * 1e6);
}

}  // namespace
}  // namespace hmpi::telemetry
