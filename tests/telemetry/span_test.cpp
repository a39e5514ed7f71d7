#include "telemetry/span.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/chrome_trace.hpp"
#include "telemetry/json.hpp"

namespace hmpi::telemetry {
namespace {

/// Fetches a finished span out of the process-wide log by id. The log is
/// global and accumulates across tests in this binary, so lookups go by the
/// unique span id rather than by position.
std::optional<SpanRecord> find_span(std::uint64_t id) {
  for (const SpanRecord& r : spans().records()) {
    if (r.id == id) return r;
  }
  return std::nullopt;
}

double fake_clock(const void* ctx) { return *static_cast<const double*>(ctx); }

TEST(Span, NestingParentChildAndTrackInheritance) {
  std::uint64_t outer_id = 0;
  std::uint64_t inner_id = 0;
  {
    Span outer("span_test.outer", 7);
    outer_id = outer.id();
    {
      Span inner("span_test.inner");
      inner_id = inner.id();
    }
  }
  const auto outer = find_span(outer_id);
  const auto inner = find_span(inner_id);
  ASSERT_TRUE(outer.has_value());
  ASSERT_TRUE(inner.has_value());
  EXPECT_EQ(outer->parent_id, 0u);
  EXPECT_EQ(outer->track, 7);
  EXPECT_EQ(inner->parent_id, outer_id);
  EXPECT_EQ(inner->track, 7);  // inherited from the enclosing span
  // The child is contained in the parent on the wall timeline.
  EXPECT_GE(inner->wall_start_us, outer->wall_start_us);
  EXPECT_LE(inner->wall_start_us + inner->wall_dur_us,
            outer->wall_start_us + outer->wall_dur_us);
}

TEST(Span, SiblingsShareTheParent) {
  std::uint64_t parent_id = 0;
  std::uint64_t a_id = 0;
  std::uint64_t b_id = 0;
  {
    Span parent("span_test.parent", 1);
    parent_id = parent.id();
    {
      Span a("span_test.a");
      a_id = a.id();
    }
    {
      Span b("span_test.b");
      b_id = b.id();
    }
  }
  EXPECT_EQ(find_span(a_id)->parent_id, parent_id);
  EXPECT_EQ(find_span(b_id)->parent_id, parent_id);
}

TEST(Span, VirtualClockScopeStampsVirtualTime) {
  double now = 5.0;
  std::uint64_t id = 0;
  {
    VirtualClockScope scope(fake_clock, &now);
    Span s("span_test.virt", 0);
    id = s.id();
    now = 9.0;  // the destructor samples the end
  }
  const auto rec = find_span(id);
  ASSERT_TRUE(rec.has_value());
  EXPECT_DOUBLE_EQ(rec->virt_start_s, 5.0);
  EXPECT_DOUBLE_EQ(rec->virt_end_s, 9.0);
}

TEST(Span, NoVirtualClockMeansNaN) {
  std::uint64_t id = 0;
  {
    Span s("span_test.novirt", 0);
    id = s.id();
  }
  const auto rec = find_span(id);
  ASSERT_TRUE(rec.has_value());
  EXPECT_TRUE(std::isnan(rec->virt_start_s));
  EXPECT_TRUE(std::isnan(rec->virt_end_s));
}

TEST(Span, VirtualClockScopeRestoresThePreviousHook) {
  double outer_clock = 1.0;
  double inner_clock = 100.0;
  std::uint64_t id = 0;
  {
    VirtualClockScope outer(fake_clock, &outer_clock);
    {
      VirtualClockScope inner(fake_clock, &inner_clock);
    }
    // The inner scope ended: spans sample the outer clock again.
    Span s("span_test.restored", 0);
    id = s.id();
  }
  EXPECT_DOUBLE_EQ(find_span(id)->virt_start_s, 1.0);
}

TEST(Span, ArgsAreEncodedAsRawJson) {
  std::uint64_t id = 0;
  {
    Span s("span_test.args", 0);
    id = s.id();
    s.arg("count", 3.0);
    s.arg("label", "hi");
    s.arg_raw("flag", "true");
  }
  const auto rec = find_span(id);
  ASSERT_TRUE(rec.has_value());
  ASSERT_EQ(rec->args.size(), 3u);
  EXPECT_EQ(rec->args[0].first, "count");
  EXPECT_EQ(rec->args[0].second, "3");
  EXPECT_EQ(rec->args[1].second, "\"hi\"");
  EXPECT_EQ(rec->args[2].second, "true");
}

TEST(Span, MacroRecordsASpan) {
  const std::size_t before = spans().size();
  { HMPI_SPAN("span_test.macro", 2); }
  EXPECT_EQ(spans().size(), before + 1);
}

TEST(TraceLog, KeepsTheNewestCapacitySpans) {
  // Records in start order; once full, each span overwrites the oldest.
  constexpr std::size_t kExtra = 3;
  TraceLog log;
  for (std::size_t i = 1; i <= TraceLog::kCapacity + kExtra; ++i) {
    SpanRecord rec;
    rec.id = i;
    rec.wall_start_us = static_cast<double>(i);
    log.record(std::move(rec));
  }
  EXPECT_EQ(log.size(), TraceLog::kCapacity);
  EXPECT_EQ(log.dropped(), kExtra);
  const std::vector<SpanRecord> kept = log.records();
  ASSERT_EQ(kept.size(), TraceLog::kCapacity);
  // Spans 1..kExtra are gone; the rest come back sorted by start.
  for (std::size_t i = 0; i < kept.size(); ++i) {
    ASSERT_EQ(kept[i].id, i + kExtra + 1) << i;
  }
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(ChromeTrace, SpansConvertToRuntimePidEvents) {
  SpanRecord rec;
  rec.id = 42;
  rec.parent_id = 41;
  rec.name = "group_create";
  rec.track = 3;
  rec.wall_start_us = 10.0;
  rec.wall_dur_us = 5.0;
  rec.virt_start_s = 1.5;
  rec.virt_end_s = 1.5;
  rec.args.emplace_back("model", "\"Em3d\"");
  const std::vector<SpanRecord> records{rec};
  const auto events = spans_to_chrome(records);
  ASSERT_EQ(events.size(), 1u);
  const ChromeEvent& e = events[0];
  EXPECT_EQ(e.name, "group_create");
  EXPECT_EQ(e.ph, 'X');
  EXPECT_EQ(e.pid, kRuntimePid);
  EXPECT_EQ(e.tid, 3);
  EXPECT_DOUBLE_EQ(e.ts_us, 10.0);
  EXPECT_DOUBLE_EQ(e.dur_us, 5.0);
  bool saw_id = false;
  bool saw_parent = false;
  bool saw_model = false;
  for (const auto& [key, value] : e.args) {
    if (key == "id") saw_id = true;
    if (key == "parent") saw_parent = true;
    if (key == "model") saw_model = value == "\"Em3d\"";
  }
  EXPECT_TRUE(saw_id);
  EXPECT_TRUE(saw_parent);
  EXPECT_TRUE(saw_model);
}

TEST(ChromeTrace, WriteSortsTracksAndEmitsMetadata) {
  std::vector<ChromeEvent> events;
  ChromeEvent late;
  late.name = "late";
  late.ts_us = 100.0;
  late.pid = kRuntimePid;
  late.tid = 0;
  ChromeEvent early;
  early.name = "early";
  early.ts_us = 1.0;
  early.pid = kRuntimePid;
  early.tid = 0;
  ChromeEvent other_track;
  other_track.name = "other";
  other_track.ts_us = 50.0;
  other_track.pid = kVirtualPid;
  other_track.tid = 2;
  events.push_back(late);
  events.push_back(early);
  events.push_back(other_track);

  std::ostringstream os;
  write_chrome_trace(os, std::move(events));
  std::string error;
  const auto doc = parse_json(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* trace = doc->find("traceEvents");
  ASSERT_NE(trace, nullptr);
  ASSERT_TRUE(trace->is_array());
  // 3 events + one process_name metadata record per pid.
  ASSERT_EQ(trace->array.size(), 5u);

  // ts is non-decreasing within each (pid, tid) track.
  std::vector<std::pair<std::pair<double, double>, double>> last_ts;
  for (const JsonValue& e : trace->array) {
    const std::string ph = e.find("ph")->string;
    if (ph == "M") {
      EXPECT_EQ(e.find("name")->string, "process_name");
      continue;
    }
    const std::pair<double, double> track{e.find("pid")->number,
                                          e.find("tid")->number};
    const double ts = e.find("ts")->number;
    for (auto& [key, prev] : last_ts) {
      if (key == track) {
        EXPECT_GE(ts, prev);
      }
    }
    bool found = false;
    for (auto& [key, prev] : last_ts) {
      if (key == track) {
        prev = ts;
        found = true;
      }
    }
    if (!found) last_ts.push_back({track, ts});
  }
}

}  // namespace
}  // namespace hmpi::telemetry
