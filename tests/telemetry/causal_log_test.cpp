// The causal log's store (docs/observability.md): one append-order log per
// world must keep exactly what a ring per rank kept. A seeded property
// compares it with a reference of one deque per rank, in ring and full
// mode, over record streams long enough to compact many times; and a
// tracer's host log stays consistent while two threads record into it and
// a third reads the trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "mpsim/trace.hpp"
#include "support/rng.hpp"
#include "telemetry/causal.hpp"
#include "telemetry/critpath.hpp"

namespace hmpi::telemetry {
namespace {

using Kind = CausalEvent::Kind;

/// A per-rank ring as the log kept it before: one deque per rank, the
/// oldest event dropped once a rank holds `capacity` (ring mode only).
class ReferenceRings {
 public:
  ReferenceRings(int ranks, ProfMode mode, std::size_t capacity)
      : mode_(mode), capacity_(capacity), rings_(ranks), dropped_(ranks) {}

  void record(int rank, const CausalEvent& event) {
    if (rank < 0 || rank >= static_cast<int>(rings_.size())) return;
    if (event_spec(event.kind).traced_only) return;
    auto& ring = rings_[static_cast<std::size_t>(rank)];
    ring.push_back(event);
    if (mode_ == ProfMode::kRing && ring.size() > capacity_) {
      ring.pop_front();
      ++dropped_[static_cast<std::size_t>(rank)];
    }
  }

  std::vector<CausalEvent> events_of(int rank) const {
    const auto& ring = rings_[static_cast<std::size_t>(rank)];
    return {ring.begin(), ring.end()};
  }

  std::uint64_t dropped_of(int rank) const {
    return dropped_[static_cast<std::size_t>(rank)];
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const auto& ring : rings_) total += ring.size();
    return total;
  }

  /// The report of a walk over these rings: a full log holding each rank's
  /// events in order, with the rings' drop count.
  CriticalPathReport report(const std::vector<int>& placement) const {
    CausalLog copy(placement, ProfMode::kFull);
    std::uint64_t dropped = 0;
    for (int r = 0; r < static_cast<int>(rings_.size()); ++r) {
      for (const CausalEvent& e : events_of(r)) copy.record(r, e);
      dropped += dropped_of(r);
    }
    CriticalPathReport out = analyze_critical_path(copy);
    out.events_dropped = dropped;
    return out;
  }

 private:
  ProfMode mode_;
  std::size_t capacity_;
  std::vector<std::deque<CausalEvent>> rings_;
  std::vector<std::uint64_t> dropped_;
};

auto fields(const CausalEvent& e) {
  return std::make_tuple(e.kind, e.coll_op, e.coll_algo, e.rank, e.proc,
                         e.peer, e.tag, e.context, e.seq, e.bytes, e.t0, e.t1,
                         e.value);
}

void expect_same_events(const std::vector<CausalEvent>& got,
                        const std::vector<CausalEvent>& want,
                        const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(fields(got[i]) == fields(want[i])) << where << " event " << i;
  }
}

std::string report_json(const CriticalPathReport& report) {
  std::ostringstream os;
  write_critpath_json(os, report);
  return os.str();
}

/// One record call: the rank it is filed under and the event.
using Record = std::pair<int, CausalEvent>;

/// A seeded stream of plausible timelines: computes, elapses, sends and
/// the receives that match them, crash marks, traced-only instants the
/// untraced log must drop, scheduler-style instants filed under rank 0
/// with rank -1, and records for ranks outside the log.
std::vector<Record> random_stream(support::Rng& rng, int ranks,
                                  std::size_t length) {
  struct InFlight {
    int src;
    std::uint32_t seq;
    double arrival;
  };
  const auto n = static_cast<std::size_t>(ranks);
  std::vector<double> clock(n, 0.0);
  std::vector<std::uint32_t> seq(n * n, 0);
  std::vector<std::deque<InFlight>> inbox(n);
  std::vector<Record> out;
  while (out.size() < length) {
    const int r = static_cast<int>(rng.next_below(n));
    const auto ru = static_cast<std::size_t>(r);
    CausalEvent e;
    e.rank = r;
    e.proc = r % 3;
    e.t0 = clock[ru];
    e.t1 = e.t0;
    if (rng.next_below(4) == 0) {
      e.coll_op = static_cast<std::int16_t>(rng.next_below(3));
      e.coll_algo = static_cast<std::int16_t>(1 + rng.next_below(2));
    }
    int filed = r;
    switch (rng.next_below(9)) {
      case 0:
      case 1:
        e.kind = Kind::kCompute;
        e.value = rng.next_double_in(1.0, 10.0);
        e.t1 = e.t0 + e.value / 8.0;
        break;
      case 2:
        e.kind = Kind::kElapse;
        e.t1 = e.t0 + rng.next_double_in(0.01, 0.1);
        break;
      case 3:
      case 4: {
        const auto dst = rng.next_below(n);
        e.kind = rng.next_below(5) == 0 ? Kind::kDelay : Kind::kSend;
        e.peer = static_cast<int>(dst);
        e.seq = seq[ru * n + dst]++;
        e.bytes = 1 + rng.next_below(4096);
        e.t1 = e.t0 + 0.005;
        e.value = e.t1 + rng.next_double_in(0.01, 2.0);
        inbox[dst].push_back({r, e.seq, e.value});
        break;
      }
      case 5:
      case 6:
        if (inbox[ru].empty()) {
          e.kind = Kind::kCompute;
          e.value = 1.0;
          e.t1 = e.t0 + 0.125;
          break;
        }
        e.kind = Kind::kRecv;
        e.peer = inbox[ru].front().src;
        e.seq = inbox[ru].front().seq;
        e.value = inbox[ru].front().arrival;
        e.t1 = std::max(e.t0, e.value) + 0.005;
        inbox[ru].pop_front();
        break;
      case 7:
        e.kind = rng.next_below(2) == 0 ? Kind::kCrash : Kind::kMapperSearch;
        break;
      default:
        e.kind = Kind::kCrash;
        if (rng.next_below(2) == 0) {
          e.rank = -1;  // a host instant: filed under rank 0
          filed = 0;
        } else {
          filed = rng.next_below(2) == 0 ? -1 : ranks;  // outside the log
        }
        break;
    }
    clock[ru] = e.t1;
    out.push_back({filed, e});
  }
  return out;
}

TEST(CausalLogProperty, KeepsWhatARingPerRankKept) {
  for (const ProfMode mode : {ProfMode::kRing, ProfMode::kFull}) {
    for (std::size_t capacity = 1; capacity <= 5; ++capacity) {
      for (int ranks = 1; ranks <= 7; ++ranks) {
        for (std::uint64_t seed = 0; seed < 4; ++seed) {
          const std::string where =
              std::string(mode == ProfMode::kRing ? "ring" : "full") +
              " capacity " + std::to_string(capacity) + " ranks " +
              std::to_string(ranks) + " seed " + std::to_string(seed);
          std::vector<int> placement;
          for (int r = 0; r < ranks; ++r) placement.push_back(r % 3);
          CausalLog log(placement, mode, capacity);
          ReferenceRings reference(ranks, mode, capacity);
          // The ring compacts whenever it holds 2 * ranks * capacity
          // entries, so this stream compacts it at least eight times.
          support::Rng rng(seed * 977 + capacity * 31 + ranks);
          const auto length = 20 * capacity * static_cast<std::size_t>(ranks);
          for (const auto& [rank, event] : random_stream(rng, ranks, length)) {
            log.record(rank, event);
            reference.record(rank, event);
          }

          EXPECT_EQ(log.size(), reference.size()) << where;
          const auto by_rank = log.events_by_rank();
          ASSERT_EQ(by_rank.size(), static_cast<std::size_t>(ranks)) << where;
          for (int r = 0; r < ranks; ++r) {
            const std::string at = where + " rank " + std::to_string(r);
            EXPECT_EQ(log.dropped_of(r), reference.dropped_of(r)) << at;
            expect_same_events(log.events_of(r), reference.events_of(r), at);
            expect_same_events(by_rank[static_cast<std::size_t>(r)],
                               reference.events_of(r), at);
          }
          EXPECT_EQ(report_json(analyze_critical_path(log)),
                    report_json(reference.report(placement)))
              << where;
        }
      }
    }
  }
}

TEST(CausalLogThreads, HostLogRecordersRaceTheTraceReader) {
  // The scheduler records into a tracer's host log from any host thread,
  // and the trace may be read meanwhile: the log's mutex serialises them.
  mp::Tracer tracer;
  const std::shared_ptr<CausalLog> host = tracer.host_log();
  constexpr int kPerThread = 3000;
  std::atomic<int> recording{2};
  const auto recorder = [&](int first_job) {
    for (int i = 0; i < kPerThread; ++i) {
      CausalEvent e;
      e.kind = Kind::kSchedDispatch;
      e.bytes = static_cast<std::uint64_t>(first_job + i);
      e.t0 = e.t1 = static_cast<double>(i);
      host->record(0, e);
    }
    recording.fetch_sub(1);
  };
  std::size_t last_seen = 0;
  bool shrank = false;
  std::thread reader([&] {
    while (recording.load() > 0) {
      const std::size_t seen = tracer.events().size();
      shrank = shrank || seen < last_seen;
      last_seen = seen;
    }
  });
  std::thread first(recorder, 0);
  std::thread second(recorder, kPerThread);
  first.join();
  second.join();
  reader.join();
  EXPECT_FALSE(shrank);

  const std::vector<CausalEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u * kPerThread);
  std::vector<std::uint64_t> jobs;
  for (const CausalEvent& e : events) jobs.push_back(e.bytes);
  std::sort(jobs.begin(), jobs.end());
  for (std::size_t i = 0; i < jobs.size(); ++i) EXPECT_EQ(jobs[i], i);
  EXPECT_EQ(host->dropped_of(0), 0u);
}

}  // namespace
}  // namespace hmpi::telemetry
