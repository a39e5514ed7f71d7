// Tracer export formats: the stable CSV contract (header, field order, kind
// names, the kMapperSearch legacy column mapping) and the Chrome trace_event
// JSON view of the same events (docs/observability.md).
#include "mpsim/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/chrome_trace.hpp"
#include "telemetry/json.hpp"

namespace hmpi::mp {
namespace {

using telemetry::CausalEvent;
using Kind = telemetry::CausalEvent::Kind;

constexpr char kHeader[] =
    "kind,world_rank,processor,peer,tag,context,bytes,units,start,end";

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

/// Attaches a traced log holding `events`, each on its own rank's shard.
void attach_events(Tracer& tracer, const std::vector<CausalEvent>& events) {
  int ranks = 0;
  for (const CausalEvent& e : events) ranks = std::max(ranks, e.rank + 1);
  auto log = std::make_shared<telemetry::CausalLog>(
      std::vector<int>(static_cast<std::size_t>(ranks), 0),
      telemetry::ProfMode::kFull, telemetry::CausalLog::kDefaultRingCapacity,
      /*traced=*/true);
  for (const CausalEvent& e : events) log->record(e.rank, e);
  tracer.attach(std::move(log));
}

TEST(TraceCsv, EmptyTracerWritesHeaderOnly) {
  Tracer tracer;
  std::ostringstream os;
  tracer.write_csv(os);
  EXPECT_EQ(os.str(), std::string(kHeader) + "\n");
}

TEST(TraceCsv, FieldOrderMatchesHeader) {
  Tracer tracer;
  CausalEvent e;
  e.kind = Kind::kSend;
  e.rank = 2;
  e.proc = 3;
  e.peer = 1;
  e.tag = 7;
  e.context = 4;
  e.bytes = 1024;
  e.t0 = 1.5;
  e.t1 = 1.5 + 5e-6;  // the send overhead
  e.value = 2.5;      // the arrival, the CSV's end
  attach_events(tracer, {e});
  const auto lines = lines_of([&] {
    std::ostringstream os;
    tracer.write_csv(os);
    return os.str();
  }());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], kHeader);
  EXPECT_EQ(lines[1], "send,2,3,1,7,4,1024,0,1.5,2.5");
}

TEST(TraceCsv, EventsAreSortedByStartTime) {
  Tracer tracer;
  CausalEvent late;
  late.kind = Kind::kCompute;
  late.rank = 0;
  late.t0 = 9.0;
  CausalEvent early;
  early.kind = Kind::kRecv;
  early.rank = 1;
  early.t0 = 1.0;
  attach_events(tracer, {late, early});
  std::ostringstream os;
  tracer.write_csv(os);
  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1].substr(0, 5), "recv,");
  EXPECT_EQ(lines[2].substr(0, 8), "compute,");
}

TEST(TraceCsv, KindNamesAreStable) {
  using telemetry::kind_name;
  EXPECT_EQ(kind_name(Kind::kSend), "send");
  EXPECT_EQ(kind_name(Kind::kRecv), "recv");
  EXPECT_EQ(kind_name(Kind::kCompute), "compute");
  EXPECT_EQ(kind_name(Kind::kCrash), "crash");
  EXPECT_EQ(kind_name(Kind::kDrop), "drop");
  EXPECT_EQ(kind_name(Kind::kDelay), "delay");
  EXPECT_EQ(kind_name(Kind::kLinkBlocked), "link_blocked");
  EXPECT_EQ(kind_name(Kind::kSuspect), "suspect");
  EXPECT_EQ(kind_name(Kind::kRecover), "recover");
  EXPECT_EQ(kind_name(Kind::kMapperSearch), "mapper_search");
  EXPECT_EQ(kind_name(Kind::kEstCompile), "est_compile");
}

TEST(TraceCsv, EstCompilePacksOpsAndSecondsIntoLegacyColumns) {
  // The runtime keeps the plan ops in bytes and the compile seconds in
  // value; the CSV shows them in bytes and units, the Chrome args by name.
  Tracer tracer;
  CausalEvent e;
  e.kind = Kind::kEstCompile;
  e.rank = 0;
  e.proc = 0;
  e.bytes = 512;
  e.value = 0.25;
  e.t0 = 1.0;
  e.t1 = 1.0;
  attach_events(tracer, {e});
  std::ostringstream os;
  tracer.write_csv(os);
  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1], "est_compile,0,0,-1,0,0,512,0.25,1,1");

  std::ostringstream chrome;
  tracer.write_chrome_json(chrome);
  std::string error;
  const auto doc = telemetry::parse_json(chrome.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  bool saw_compile = false;
  for (const telemetry::JsonValue& ev : doc->find("traceEvents")->array) {
    if (ev.find("name")->string != "est_compile") continue;
    saw_compile = true;
    EXPECT_EQ(ev.find("ph")->string, "i");  // instant: zero virtual time
    EXPECT_DOUBLE_EQ(ev.find("args")->find("ops")->number, 512.0);
    EXPECT_DOUBLE_EQ(ev.find("args")->find("seconds")->number, 0.25);
  }
  EXPECT_TRUE(saw_compile);
}

TEST(TraceCsv, MapperSearchKeepsLegacyColumnEncoding) {
  // The runtime packs the search the historical way (threads in peer,
  // hit-rate percent in tag, evaluations in bytes, wall seconds in units)
  // and keeps the exact hit rate in t1 for the Chrome args.
  Tracer tracer;
  CausalEvent e;
  e.kind = Kind::kMapperSearch;
  e.rank = 0;
  e.proc = 0;
  e.peer = 4;
  e.tag = 75;
  e.bytes = 250;
  e.value = 0.5;
  e.t0 = 3.0;
  e.t1 = 0.75;
  attach_events(tracer, {e});
  std::ostringstream os;
  tracer.write_csv(os);
  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1], "mapper_search,0,0,4,75,0,250,0.5,3,3");
}

TEST(TraceCsv, ChromeJsonIsValidAndCarriesSearchArgs) {
  Tracer tracer;
  CausalEvent compute;
  compute.kind = Kind::kCompute;
  compute.rank = 1;
  compute.proc = 1;
  compute.value = 50.0;
  compute.t0 = 0.5;
  compute.t1 = 1.0;
  CausalEvent search;
  search.kind = Kind::kMapperSearch;
  search.rank = 0;
  search.proc = 0;
  search.bytes = 9;
  search.t0 = 2.0;
  search.t1 = 1.0;  // the hit rate
  attach_events(tracer, {compute, search});

  std::ostringstream os;
  tracer.write_chrome_json(os);
  std::string error;
  const auto doc = telemetry::parse_json(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const telemetry::JsonValue* trace = doc->find("traceEvents");
  ASSERT_NE(trace, nullptr);
  ASSERT_TRUE(trace->is_array());

  bool saw_compute = false;
  bool saw_search = false;
  for (const telemetry::JsonValue& ev : trace->array) {
    const std::string& name = ev.find("name")->string;
    if (name == "compute") {
      saw_compute = true;
      EXPECT_EQ(ev.find("ph")->string, "X");
      EXPECT_DOUBLE_EQ(ev.find("pid")->number, telemetry::kVirtualPid);
      EXPECT_DOUBLE_EQ(ev.find("tid")->number, 1.0);
      EXPECT_DOUBLE_EQ(ev.find("ts")->number, 0.5e6);
      EXPECT_DOUBLE_EQ(ev.find("dur")->number, 0.5e6);
      EXPECT_DOUBLE_EQ(ev.find("args")->find("units")->number, 50.0);
    }
    if (name == "mapper_search") {
      saw_search = true;
      EXPECT_EQ(ev.find("ph")->string, "i");  // instant: zero virtual time
      EXPECT_DOUBLE_EQ(ev.find("args")->find("evaluations")->number, 9.0);
      EXPECT_DOUBLE_EQ(ev.find("args")->find("hit_rate")->number, 1.0);
    }
  }
  EXPECT_TRUE(saw_compute);
  EXPECT_TRUE(saw_search);
}

}  // namespace
}  // namespace hmpi::mp
