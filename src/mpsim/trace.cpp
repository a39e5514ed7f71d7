#include "mpsim/trace.hpp"

#include <algorithm>
#include <ostream>

#include "coll/policy.hpp"
#include "telemetry/chrome_trace.hpp"

namespace hmpi::mp {

namespace {

using telemetry::CausalEvent;
using telemetry::EventField;

std::shared_ptr<telemetry::CausalLog> make_host_log() {
  return std::make_shared<telemetry::CausalLog>(
      std::vector<int>{-1}, telemetry::ProfMode::kFull,
      telemetry::CausalLog::kDefaultRingCapacity, /*traced=*/true);
}

void append_exported(const telemetry::CausalLog& log,
                     std::vector<CausalEvent>& out) {
  for (const auto& rank_events : log.events_by_rank()) {
    for (const CausalEvent& e : rank_events) {
      if (telemetry::event_spec(e.kind).phase != 0) out.push_back(e);
    }
  }
}

}  // namespace

std::vector<telemetry::ChromeEvent> to_chrome_events(
    std::span<const CausalEvent> events) {
  std::vector<telemetry::ChromeEvent> out;
  out.reserve(events.size());
  for (const CausalEvent& e : events) {
    const telemetry::EventSpec& spec = telemetry::event_spec(e.kind);
    if (spec.phase == 0) continue;
    telemetry::ChromeEvent c;
    c.name = spec.name;
    c.pid = telemetry::kVirtualPid;
    c.tid = e.rank;
    c.ts_us = e.t0 * 1e6;
    c.ph = spec.phase;
    if (c.ph == 'X') c.dur_us = (field_value(e, spec.end) - e.t0) * 1e6;
    c.arg("processor", static_cast<double>(e.proc));
    const auto op = static_cast<coll::CollOp>(e.coll_op);
    for (const telemetry::EventArg& a : spec.args) {
      if (a.name.empty()) break;
      if (a.field == EventField::kCollOp) {
        c.arg(a.name, coll::op_name(op));
      } else if (a.field == EventField::kCollAlgo) {
        c.arg(a.name, coll::algo_name(op, e.coll_algo));
      } else {
        c.arg(a.name, field_value(e, a.field));
      }
    }
    out.push_back(std::move(c));
  }
  return out;
}

Tracer::Tracer() : host_(make_host_log()) {}

void Tracer::attach(std::shared_ptr<const telemetry::CausalLog> log) {
  std::lock_guard<std::mutex> lock(mutex_);
  logs_.push_back(std::move(log));
}

std::shared_ptr<telemetry::CausalLog> Tracer::host_log() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return host_;
}

std::vector<CausalEvent> Tracer::events() const {
  std::vector<CausalEvent> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& log : logs_) append_exported(*log, out);
    append_exported(*host_, out);
  }
  // Stable: events tied on (t0, rank) come from one rank of one world (or
  // the scheduler) and keep their program order, so the sorted stream is
  // independent of the order in which the processes were dispatched.
  std::stable_sort(out.begin(), out.end(),
                   [](const CausalEvent& a, const CausalEvent& b) {
                     if (a.t0 != b.t0) return a.t0 < b.t0;
                     return a.rank < b.rank;
                   });
  return out;
}

void Tracer::write_csv(std::ostream& os) const {
  os << "kind,world_rank,processor,peer,tag,context,bytes,units,start,end\n";
  for (const CausalEvent& e : events()) {
    const telemetry::EventSpec& spec = telemetry::event_spec(e.kind);
    os << spec.name << ',' << e.rank << ',' << e.proc << ',' << e.peer << ','
       << e.tag << ',' << e.context << ',' << e.bytes << ','
       << field_value(e, spec.units) << ',' << e.t0 << ','
       << field_value(e, spec.end) << '\n';
  }
}

void Tracer::write_chrome_json(std::ostream& os) const {
  telemetry::write_chrome_trace(os, to_chrome_events(events()));
}

std::size_t Tracer::size() const { return events().size(); }

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  logs_.clear();
  host_ = make_host_log();
}

}  // namespace hmpi::mp
