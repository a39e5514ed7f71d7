#include "telemetry/critpath.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <ostream>
#include <string>
#include <tuple>

#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

namespace hmpi::telemetry {

namespace {

PathRole role(const CausalEvent& e) { return event_spec(e.kind).path; }

bool on_path(const CausalEvent& e) { return role(e) != PathRole::kNone; }

/// A send's identity: (sender, destination, sequence).
using SendKey = std::tuple<int, int, std::uint32_t>;
/// Where an event sits: (rank, index in that rank's events).
using EventLoc = std::pair<int, std::size_t>;

/// Every rank's events, with each send indexed by its identity so a receive
/// can find its matching send across ranks.
struct Shards {
  std::vector<std::vector<CausalEvent>> events;
  /// Sorted; of two sends with one identity the later one counts.
  std::vector<std::pair<SendKey, EventLoc>> sends;

  /// The send `recv` matched, or nullptr when the log no longer holds it.
  const EventLoc* send_of(const CausalEvent& recv) const {
    const SendKey key{recv.peer, recv.rank, recv.seq};
    const auto it = std::upper_bound(
        sends.begin(), sends.end(), key,
        [](const SendKey& k, const auto& entry) { return k < entry.first; });
    if (it == sends.begin() || std::prev(it)->first != key) return nullptr;
    return &std::prev(it)->second;
  }
};

Shards load_shards(const CausalLog& log) {
  Shards out;
  out.events = log.events_by_rank();
  for (std::size_t r = 0; r < out.events.size(); ++r) {
    const auto& shard = out.events[r];
    for (std::size_t i = 0; i < shard.size(); ++i) {
      if (role(shard[i]) == PathRole::kSend) {
        out.sends.push_back({{shard[i].rank, shard[i].peer, shard[i].seq},
                             {static_cast<int>(r), i}});
      }
    }
  }
  // Equal identities sort by location, so the later send comes last.
  std::sort(out.sends.begin(), out.sends.end());
  return out;
}

std::pair<std::string, std::string> resolve_coll(const CollNamer& namer,
                                                 int op, int algo) {
  if (namer) return namer(op, algo);
  return {"op" + std::to_string(op), "algo" + std::to_string(algo)};
}

}  // namespace

const char* path_segment_kind_name(PathSegment::Kind kind) {
  switch (kind) {
    case PathSegment::Kind::kCompute: return "compute";
    case PathSegment::Kind::kElapse: return "elapse";
    case PathSegment::Kind::kSendOverhead: return "send_overhead";
    case PathSegment::Kind::kTransfer: return "transfer";
    case PathSegment::Kind::kRecvOverhead: return "recv_overhead";
    case PathSegment::Kind::kGap: return "gap";
  }
  return "gap";
}

CriticalPathReport analyze_critical_path(const CausalLog& log) {
  CriticalPathReport report;
  const Shards shards = load_shards(log);
  const auto& events = shards.events;
  for (int r = 0; r < log.ranks(); ++r) {
    report.events_dropped += log.dropped_of(r);
  }

  // The path ends at the globally latest in-path event (smallest rank wins
  // ties, for determinism across engines).
  int end_rank = -1;
  std::size_t end_index = 0;
  for (int r = 0; r < log.ranks(); ++r) {
    const auto& shard = events[static_cast<std::size_t>(r)];
    for (std::size_t i = shard.size(); i-- > 0;) {
      if (!on_path(shard[i])) continue;
      if (end_rank < 0 || shard[i].t1 > report.makespan_s) {
        report.makespan_s = shard[i].t1;
        end_rank = r;
        end_index = i;
      }
      break;  // only the last in-path event per rank can end the path
    }
  }
  if (end_rank < 0) {
    // Nothing recorded: an empty world (trivially complete) or a disabled
    // log (nothing to say).
    report.complete = log.enabled();
    return report;
  }
  report.end_rank = end_rank;

  // Backward walk. `frontier` is the exclusive upper bound of the next
  // segment; it only ever decreases, so segments never overlap even if a
  // model produced arrival times inside the sender's overhead window.
  std::vector<PathSegment> backward;
  const auto add_segment = [&](PathSegment::Kind kind, const CausalEvent& e,
                               double t0, double t1) {
    if (t1 < t0) t1 = t0;
    PathSegment seg;
    seg.kind = kind;
    seg.rank = e.rank;
    seg.proc = e.proc;
    seg.peer_proc = log.proc_of(e.peer);
    seg.t0 = t0;
    seg.t1 = t1;
    seg.coll_op = e.coll_op;
    seg.coll_algo = e.coll_algo;
    backward.push_back(seg);
    const double dur = t1 - t0;
    switch (kind) {
      case PathSegment::Kind::kCompute:
      case PathSegment::Kind::kElapse:
        report.compute_s += dur;
        report.machine_s[seg.proc] += dur;
        break;
      case PathSegment::Kind::kSendOverhead:
        report.overhead_s += dur;
        report.link_s[{seg.proc, seg.peer_proc}] += dur;
        break;
      case PathSegment::Kind::kTransfer:
        report.transfer_s += dur;
        report.link_s[{seg.proc, seg.peer_proc}] += dur;
        break;
      case PathSegment::Kind::kRecvOverhead:
        report.overhead_s += dur;
        if (seg.peer_proc >= 0) {
          report.link_s[{seg.peer_proc, seg.proc}] += dur;
        }
        break;
      case PathSegment::Kind::kGap:
        report.gap_s += dur;
        break;
    }
    if (seg.coll_op >= 0 && kind != PathSegment::Kind::kGap) {
      report.coll_s[{seg.coll_op, seg.coll_algo}] += dur;
    }
  };

  int rank = end_rank;
  std::size_t index = end_index;
  double frontier = report.makespan_s;
  double start_time = frontier;
  bool complete = false;
  while (true) {
    const CausalEvent& e = events[static_cast<std::size_t>(rank)][index];

    if (role(e) == PathRole::kRecv && e.value > e.t0) {
      // The receiver was ready before the message arrived (`value` is the
      // arrival): the critical dependency is the message itself. Cross to
      // the matching send.
      const double matched = std::min(e.value, frontier);
      add_segment(PathSegment::Kind::kRecvOverhead, e, matched, frontier);
      const EventLoc* loc = shards.send_of(e);
      if (loc == nullptr) {
        start_time = matched;  // sender's history fell off the ring
        break;
      }
      const auto [send_rank, send_index] = *loc;
      const CausalEvent& send =
          events[static_cast<std::size_t>(send_rank)][send_index];
      const double send_end = std::min(send.t1, matched);
      add_segment(PathSegment::Kind::kTransfer, send, send_end, matched);
      rank = send_rank;
      index = send_index;
      frontier = send_end;
      continue;
    }

    PathSegment::Kind kind = PathSegment::Kind::kCompute;
    switch (role(e)) {
      case PathRole::kCompute: kind = PathSegment::Kind::kCompute; break;
      case PathRole::kElapse: kind = PathSegment::Kind::kElapse; break;
      case PathRole::kSend: kind = PathSegment::Kind::kSendOverhead; break;
      case PathRole::kRecv: kind = PathSegment::Kind::kRecvOverhead; break;
      case PathRole::kNone: break;  // unreachable: off-path kinds are skipped
    }
    const double lo = std::min(e.t0, frontier);
    add_segment(kind, e, lo, frontier);
    start_time = lo;
    if (lo == 0.0) {
      complete = true;
      break;
    }
    // Local program order: the previous in-path event ends exactly where
    // this one starts (the clock only moves inside recorded events).
    std::size_t prev = index;
    bool found = false;
    while (prev-- > 0) {
      const CausalEvent& cand = events[static_cast<std::size_t>(rank)][prev];
      if (!on_path(cand)) continue;
      if (cand.t1 == e.t0) {
        index = prev;
        frontier = lo;
        found = true;
      }
      break;  // contiguity broken (ring horizon): stop either way
    }
    if (!found) break;
  }

  report.complete = complete;
  report.path_s = report.makespan_s - start_time;
  if (!complete && start_time > 0.0) {
    CausalEvent gap;  // placeholder identity for the unattributed prefix
    gap.rank = -1;
    gap.proc = -1;
    gap.peer = -1;
    gap.coll_op = -1;
    add_segment(PathSegment::Kind::kGap, gap, 0.0, start_time);
  }

  report.segments.assign(backward.rbegin(), backward.rend());
  return report;
}

void write_critpath_json(std::ostream& os, const CriticalPathReport& report,
                         const CollNamer& namer) {
  os << "{\n  \"critical_path\": {\n";
  os << "    \"complete\": " << (report.complete ? "true" : "false") << ",\n";
  os << "    \"makespan_s\": " << json_number(report.makespan_s) << ",\n";
  os << "    \"path_s\": " << json_number(report.path_s) << ",\n";
  os << "    \"compute_s\": " << json_number(report.compute_s) << ",\n";
  os << "    \"transfer_s\": " << json_number(report.transfer_s) << ",\n";
  os << "    \"overhead_s\": " << json_number(report.overhead_s) << ",\n";
  os << "    \"gap_s\": " << json_number(report.gap_s) << ",\n";
  os << "    \"end_rank\": " << report.end_rank << ",\n";
  os << "    \"events_dropped\": " << report.events_dropped << ",\n";

  os << "    \"machines\": [";
  bool first = true;
  for (const auto& [proc, seconds] : report.machine_s) {
    os << (first ? "" : ", ") << "{\"processor\": " << proc
       << ", \"seconds\": " << json_number(seconds) << "}";
    first = false;
  }
  os << "],\n";

  os << "    \"links\": [";
  first = true;
  for (const auto& [link, seconds] : report.link_s) {
    os << (first ? "" : ", ") << "{\"src\": " << link.first
       << ", \"dst\": " << link.second
       << ", \"seconds\": " << json_number(seconds) << "}";
    first = false;
  }
  os << "],\n";

  os << "    \"collectives\": [";
  first = true;
  for (const auto& [key, seconds] : report.coll_s) {
    const auto [op, algo] = resolve_coll(namer, key.first, key.second);
    os << (first ? "" : ", ") << "{\"op\": " << json_quote(op)
       << ", \"algo\": " << json_quote(algo)
       << ", \"seconds\": " << json_number(seconds) << "}";
    first = false;
  }
  os << "],\n";

  os << "    \"segments\": [";
  for (std::size_t i = 0; i < report.segments.size(); ++i) {
    const PathSegment& seg = report.segments[i];
    os << (i == 0 ? "\n" : ",\n") << "      {\"kind\": \""
       << path_segment_kind_name(seg.kind) << "\", \"rank\": " << seg.rank
       << ", \"processor\": " << seg.proc << ", \"peer\": " << seg.peer_proc
       << ", \"start_s\": " << json_number(seg.t0)
       << ", \"end_s\": " << json_number(seg.t1);
    if (seg.coll_op >= 0) {
      const auto [op, algo] = resolve_coll(namer, seg.coll_op, seg.coll_algo);
      os << ", \"op\": " << json_quote(op) << ", \"algo\": " << json_quote(algo);
    }
    os << "}";
  }
  os << (report.segments.empty() ? "" : "\n    ") << "]\n";
  os << "  }\n}\n";
}

void report_to_metrics(const CriticalPathReport& report,
                       MetricsRegistry& registry, const CollNamer& namer) {
  registry.gauge("crit.path_seconds").set(report.path_s);
  registry.gauge("crit.makespan_seconds").set(report.makespan_s);
  registry.gauge("crit.compute_seconds").set(report.compute_s);
  registry.gauge("crit.transfer_seconds").set(report.transfer_s);
  registry.gauge("crit.overhead_seconds").set(report.overhead_s);
  registry.gauge("crit.gap_seconds").set(report.gap_s);
  registry.gauge("crit.segments").set(static_cast<double>(report.segments.size()));
  registry.gauge("crit.complete").set(report.complete ? 1.0 : 0.0);
  registry.gauge("crit.events_dropped")
      .set(static_cast<double>(report.events_dropped));
  for (const auto& [proc, seconds] : report.machine_s) {
    registry.gauge("crit.machine." + std::to_string(proc) + ".seconds")
        .set(seconds);
  }
  for (const auto& [link, seconds] : report.link_s) {
    registry
        .gauge("crit.link." + std::to_string(link.first) + "." +
               std::to_string(link.second) + ".seconds")
        .set(seconds);
  }
  for (const auto& [key, seconds] : report.coll_s) {
    const auto [op, algo] = resolve_coll(namer, key.first, key.second);
    registry.gauge("crit.coll." + op + "." + algo + ".seconds").set(seconds);
  }
}

std::vector<ChromeEvent> causal_flow_events(const CausalLog& log) {
  std::vector<ChromeEvent> flows;
  const Shards shards = load_shards(log);
  std::uint64_t next_id = 1;
  for (const auto& rank_events : shards.events) {
    for (const CausalEvent& e : rank_events) {
      if (role(e) != PathRole::kRecv) continue;
      const EventLoc* loc = shards.send_of(e);
      if (loc == nullptr) continue;
      const CausalEvent& send =
          shards.events[static_cast<std::size_t>(loc->first)][loc->second];
      const std::uint64_t id = next_id++;
      ChromeEvent start;
      start.name = "msg";
      start.cat = "hmpi.flow";
      start.ph = 's';
      start.ts_us = send.t0 * 1e6;
      start.pid = kVirtualPid;
      start.tid = send.rank;
      start.flow_id = id;
      flows.push_back(std::move(start));
      ChromeEvent finish;
      finish.name = "msg";
      finish.cat = "hmpi.flow";
      finish.ph = 'f';
      finish.ts_us = e.t1 * 1e6;
      finish.pid = kVirtualPid;
      finish.tid = e.rank;
      finish.flow_id = id;
      flows.push_back(std::move(finish));
    }
  }
  return flows;
}

}  // namespace hmpi::telemetry
