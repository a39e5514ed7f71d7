#include "mpsim/trace.hpp"

#include <algorithm>
#include <ostream>

#include "coll/policy.hpp"
#include "telemetry/chrome_trace.hpp"

namespace hmpi::mp {

const char* kind_name(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::kSend: return "send";
    case TraceEvent::Kind::kRecv: return "recv";
    case TraceEvent::Kind::kCompute: return "compute";
    case TraceEvent::Kind::kCrash: return "crash";
    case TraceEvent::Kind::kDrop: return "drop";
    case TraceEvent::Kind::kDelay: return "delay";
    case TraceEvent::Kind::kLinkBlocked: return "link_blocked";
    case TraceEvent::Kind::kSuspect: return "suspect";
    case TraceEvent::Kind::kRecover: return "recover";
    case TraceEvent::Kind::kMapperSearch: return "mapper_search";
    case TraceEvent::Kind::kMapperBatch: return "mapper_batch";
    case TraceEvent::Kind::kCollSelect: return "coll_select";
    case TraceEvent::Kind::kEstCompile: return "est_compile";
    case TraceEvent::Kind::kAdaptTrigger: return "adapt_trigger";
    case TraceEvent::Kind::kAdaptMigrate: return "adapt_migrate";
    case TraceEvent::Kind::kAdaptRollback: return "adapt_rollback";
    case TraceEvent::Kind::kSchedDispatch: return "sched_dispatch";
    case TraceEvent::Kind::kSchedPreempt: return "sched_preempt";
  }
  return "compute";
}

namespace {

bool is_instant(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::kCrash:
    case TraceEvent::Kind::kDrop:
    case TraceEvent::Kind::kSuspect:
    case TraceEvent::Kind::kRecover:
    case TraceEvent::Kind::kMapperSearch:
    case TraceEvent::Kind::kMapperBatch:
    case TraceEvent::Kind::kCollSelect:
    case TraceEvent::Kind::kEstCompile:
    case TraceEvent::Kind::kAdaptTrigger:
    case TraceEvent::Kind::kAdaptMigrate:
    case TraceEvent::Kind::kAdaptRollback:
    case TraceEvent::Kind::kSchedDispatch:
    case TraceEvent::Kind::kSchedPreempt:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::vector<telemetry::ChromeEvent> to_chrome_events(
    std::span<const TraceEvent> events) {
  std::vector<telemetry::ChromeEvent> out;
  out.reserve(events.size());
  for (const TraceEvent& e : events) {
    telemetry::ChromeEvent c;
    c.name = kind_name(e.kind);
    c.pid = telemetry::kVirtualPid;
    c.tid = e.world_rank;
    c.ts_us = e.start_time * 1e6;
    if (is_instant(e.kind)) {
      c.ph = 'i';
    } else {
      c.ph = 'X';
      c.dur_us = (e.end_time - e.start_time) * 1e6;
    }
    c.arg("processor", static_cast<double>(e.processor));
    switch (e.kind) {
      case TraceEvent::Kind::kSend:
      case TraceEvent::Kind::kRecv:
      case TraceEvent::Kind::kDrop:
      case TraceEvent::Kind::kDelay:
      case TraceEvent::Kind::kLinkBlocked:
        c.arg("peer", static_cast<double>(e.peer));
        c.arg("tag", static_cast<double>(e.tag));
        c.arg("bytes", static_cast<double>(e.bytes));
        break;
      case TraceEvent::Kind::kCompute:
        c.arg("units", e.units);
        break;
      case TraceEvent::Kind::kMapperSearch:
        c.arg("evaluations", static_cast<double>(e.search.evaluations));
        c.arg("hit_rate", e.search.hit_rate);
        c.arg("threads", static_cast<double>(e.search.threads));
        c.arg("wall_seconds", e.search.wall_seconds);
        break;
      case TraceEvent::Kind::kMapperBatch:
        c.arg("chunks", static_cast<double>(e.batch.chunks));
        c.arg("candidates", static_cast<double>(e.batch.candidates));
        break;
      case TraceEvent::Kind::kEstCompile:
        c.arg("ops", static_cast<double>(e.compile.ops));
        c.arg("seconds", e.compile.seconds);
        break;
      case TraceEvent::Kind::kCollSelect:
        c.arg("op", coll::op_name(static_cast<coll::CollOp>(e.coll.op)));
        c.arg("algo",
              coll::algo_name(static_cast<coll::CollOp>(e.coll.op), e.coll.algo));
        c.arg("bytes", static_cast<double>(e.bytes));
        c.arg("predicted_s", e.coll.predicted_s);
        break;
      case TraceEvent::Kind::kAdaptTrigger:
      case TraceEvent::Kind::kAdaptMigrate:
      case TraceEvent::Kind::kAdaptRollback:
        c.arg("group_id", static_cast<double>(e.adapt.group_id));
        c.arg("signal", static_cast<double>(e.adapt.signal));
        c.arg("severity", e.adapt.severity);
        c.arg("predicted_gain_s", e.adapt.predicted_gain_s);
        break;
      case TraceEvent::Kind::kSchedDispatch:
      case TraceEvent::Kind::kSchedPreempt:
        c.arg("job", static_cast<double>(e.sched.job));
        c.arg("priority", static_cast<double>(e.sched.priority));
        c.arg("procs", static_cast<double>(e.sched.procs));
        c.arg("predicted_s", e.sched.predicted_s);
        c.arg("progress", e.sched.progress);
        break;
      default:
        break;
    }
    out.push_back(std::move(c));
  }
  return out;
}

void Tracer::record(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(event);
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = events_;
  }
  // Stable: events tied on (start_time, world_rank) come from one process
  // and keep their program order, so the sorted stream is independent of the
  // order in which the processes were dispatched.
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.start_time != b.start_time) {
                       return a.start_time < b.start_time;
                     }
                     return a.world_rank < b.world_rank;
                   });
  return out;
}

void Tracer::write_csv(std::ostream& os) const {
  os << "kind,world_rank,processor,peer,tag,context,bytes,units,start,end\n";
  for (const TraceEvent& e : events()) {
    // kMapperSearch keeps its historical column encoding (threads in peer,
    // hit rate percent in tag, evaluations in bytes, wall seconds in units)
    // so downstream CSV consumers keep working; the honest representation is
    // TraceEvent::search and the Chrome-trace args.
    int peer = e.peer;
    int tag = e.tag;
    std::size_t bytes = e.bytes;
    double units = e.units;
    if (e.kind == TraceEvent::Kind::kMapperSearch) {
      peer = e.search.threads;
      tag = static_cast<int>(e.search.hit_rate * 100.0);
      bytes = static_cast<std::size_t>(e.search.evaluations);
      units = e.search.wall_seconds;
    }
    // kCollSelect packs the same way: algorithm in peer, op in tag,
    // prediction in units; the honest form is TraceEvent::coll / the
    // Chrome-trace args.
    if (e.kind == TraceEvent::Kind::kCollSelect) {
      peer = e.coll.algo;
      tag = e.coll.op;
      units = e.coll.predicted_s;
    }
    // kMapperBatch packs the chunk count in peer and the candidate count in
    // both bytes and units; the honest form is TraceEvent::batch / the
    // Chrome-trace args.
    if (e.kind == TraceEvent::Kind::kMapperBatch) {
      peer = static_cast<int>(e.batch.chunks);
      bytes = static_cast<std::size_t>(e.batch.candidates);
      units = static_cast<double>(e.batch.candidates);
    }
    // kEstCompile likewise: plan ops in bytes, compile seconds in units.
    if (e.kind == TraceEvent::Kind::kEstCompile) {
      bytes = static_cast<std::size_t>(e.compile.ops);
      units = e.compile.seconds;
    }
    // The kAdapt* kinds pack the signal in peer, the group id in bytes and
    // the predicted gain in units; the honest form is TraceEvent::adapt /
    // the Chrome-trace args (severity is trace-args-only).
    if (e.kind == TraceEvent::Kind::kAdaptTrigger ||
        e.kind == TraceEvent::Kind::kAdaptMigrate ||
        e.kind == TraceEvent::Kind::kAdaptRollback) {
      peer = e.adapt.signal;
      bytes = static_cast<std::size_t>(e.adapt.group_id);
      units = e.adapt.predicted_gain_s;
    }
    // The kSched* kinds pack the priority in peer, the abstract-processor
    // count in tag, the job id in bytes, and the predicted segment length
    // in units; the honest form is TraceEvent::sched / the Chrome-trace
    // args (progress is trace-args-only).
    if (e.kind == TraceEvent::Kind::kSchedDispatch ||
        e.kind == TraceEvent::Kind::kSchedPreempt) {
      peer = e.sched.priority;
      tag = e.sched.procs;
      bytes = static_cast<std::size_t>(e.sched.job);
      units = e.sched.predicted_s;
    }
    os << kind_name(e.kind) << ',' << e.world_rank << ',' << e.processor
       << ',' << peer << ',' << tag << ',' << e.context << ',' << bytes << ','
       << units << ',' << e.start_time << ',' << e.end_time << '\n';
  }
}

void Tracer::write_chrome_json(std::ostream& os) const {
  const std::vector<TraceEvent> all = events();
  telemetry::write_chrome_trace(os, to_chrome_events(all));
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
}

}  // namespace hmpi::mp
