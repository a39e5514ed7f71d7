// Validates telemetry JSON artifacts (CI smoke job; docs/observability.md).
//
// For each file argument the checker parses the document with the telemetry
// JSON parser and then applies shape checks by sniffing the document type:
//   * Chrome traces ({"traceEvents": [...]}): every event needs name/ph/ts,
//     ts must be non-decreasing per (pid, tid) track (metadata events
//     excluded), at least one non-metadata event must be present, and every
//     virtual-timeline event other than a flow arrow must name an
//     event_catalog() kind in its declared phase.
//   * Metrics dumps ({"counters": ..., "histograms": ...}): sections must be
//     objects, histogram entries need count/sum/buckets/percentiles, and
//     every name must match a metric_catalog() entry of its section's kind,
//     with <op>/<algo> segments naming a collective and one of its
//     algorithms in the coll policy tables (docs/collectives.md).
//   * Bench exports ({"benchmark": ..., "tables": [...]}): every table needs
//     title/columns/rows with rows matching the column count.
//   * Adaptation ledgers ({"adaptations": [...]}): every entry needs group
//     ids, a known signal/outcome, gate pricing, and member rosters.
//   * Critical-path reports ({"critical_path": {...}}): numeric totals and
//     blame tables, and ordered segments of known kinds.
//   * Scheduler dumps ({"scheduler": {...}}; docs/scheduler.md): a known
//     policy, numeric accounting summary, and per-job records with known
//     states.
// Signal, outcome, segment-kind, policy and job-state names come from the
// library's own name functions.
// Exit status 0 when every file passes, 1 otherwise.
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "coll/policy.hpp"
#include "hmpi/adapt.hpp"
#include "sched/job.hpp"
#include "sched/scheduler.hpp"
#include "telemetry/causal.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/critpath.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

namespace {

using hmpi::telemetry::JsonValue;
using hmpi::telemetry::MetricKind;

int errors = 0;

void fail(const std::string& file, const std::string& message) {
  std::fprintf(stderr, "%s: FAIL: %s\n", file.c_str(), message.c_str());
  ++errors;
}

// Fails unless `value` is a string that `name_of` gives one of the
// enumerators from 0 to `last`.
template <typename Enum>
void check_name(const std::string& file, const std::string& what,
                const JsonValue* value, Enum last,
                const char* (*name_of)(Enum)) {
  std::string names;
  for (int i = 0; i <= static_cast<int>(last); ++i) {
    const char* name = name_of(static_cast<Enum>(i));
    if (value != nullptr && value->is_string() && value->string == name) return;
    if (i > 0) names += '|';
    names += name;
  }
  fail(file, what + " outside " + names);
}

// A virtual-timeline event names a declared kind, in the catalogue's phase.
void check_virtual_event(const std::string& file, const std::string& at,
                         const std::string& name, const std::string& ph) {
  for (const hmpi::telemetry::EventSpec& spec :
       hmpi::telemetry::event_catalog()) {
    if (spec.name != name) continue;
    if (spec.phase == 0 || ph != std::string(1, spec.phase)) {
      fail(file, at + ": '" + name + "' has phase " + ph +
                     ", which the event catalogue does not declare");
    }
    return;
  }
  fail(file, at + ": '" + name + "' is not in the event catalogue");
}

void check_chrome_trace(const std::string& file, const JsonValue& doc) {
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    fail(file, "traceEvents is not an array");
    return;
  }
  std::map<std::pair<double, double>, double> last_ts;  // (pid, tid) -> ts
  int real_events = 0;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& e = events->array[i];
    const std::string at = "traceEvents[" + std::to_string(i) + "]";
    if (!e.is_object()) {
      fail(file, at + " is not an object");
      continue;
    }
    const JsonValue* name = e.find("name");
    const JsonValue* ph = e.find("ph");
    const JsonValue* ts = e.find("ts");
    if (name == nullptr || !name->is_string()) fail(file, at + " missing name");
    if (ph == nullptr || !ph->is_string()) fail(file, at + " missing ph");
    if (ts == nullptr || !ts->is_number()) fail(file, at + " missing ts");
    if (ph == nullptr || ts == nullptr || !ph->is_string() || !ts->is_number()) {
      continue;
    }
    if (ph->string == "M") continue;  // metadata carries no timeline position
    ++real_events;
    const JsonValue* pid = e.find("pid");
    const bool flow = ph->string == "s" || ph->string == "f";
    if (pid != nullptr && pid->number == hmpi::telemetry::kVirtualPid &&
        !flow && name != nullptr && name->is_string()) {
      check_virtual_event(file, at, name->string, ph->string);
    }
    const JsonValue* tid = e.find("tid");
    const std::pair<double, double> track{pid != nullptr ? pid->number : 0.0,
                                          tid != nullptr ? tid->number : 0.0};
    auto it = last_ts.find(track);
    if (it != last_ts.end() && ts->number < it->second) {
      fail(file, at + ": ts regressed on its (pid, tid) track");
    }
    last_ts[track] = std::max(ts->number,
                              it != last_ts.end() ? it->second : ts->number);
  }
  if (real_events == 0) fail(file, "trace contains no non-metadata events");
}

void check_histogram(const std::string& file, const std::string& name,
                     const JsonValue& h) {
  if (!h.is_object() || h.find("count") == nullptr ||
      h.find("sum") == nullptr || h.find("buckets") == nullptr ||
      !h.find("buckets")->is_array()) {
    fail(file, "histogram " + name + " missing count/sum/buckets");
  }
  // Percentiles are part of the dump format; null only for empty
  // histograms (json_number renders NaN as null).
  for (const char* q : {"p50", "p95", "p99"}) {
    const JsonValue* v = h.is_object() ? h.find(q) : nullptr;
    if (v == nullptr || (!v->is_number() && !v->is_null())) {
      fail(file, "histogram " + name + " missing numeric-or-null " + q);
    }
  }
}

void check_metrics(const std::string& file, const JsonValue& doc) {
  const std::pair<const char*, MetricKind> sections[] = {
      {"counters", MetricKind::kCounter},
      {"gauges", MetricKind::kGauge},
      {"histograms", MetricKind::kHistogram}};
  for (const auto& [section, kind] : sections) {
    const JsonValue* s = doc.find(section);
    if (s == nullptr || !s->is_object()) {
      fail(file, std::string(section) + " is not an object");
      continue;
    }
    for (const auto& [name, value] : s->object) {
      if (hmpi::telemetry::find_metric(name, kind,
                                       hmpi::coll::names_collective) ==
          nullptr) {
        fail(file, std::string(hmpi::telemetry::metric_kind_name(kind)) +
                       " '" + name +
                       "' is not in the metric catalogue "
                       "(docs/observability.md)");
      }
      if (kind == MetricKind::kHistogram) check_histogram(file, name, value);
    }
  }
}

void check_bench(const std::string& file, const JsonValue& doc) {
  const JsonValue* tables = doc.find("tables");
  if (tables == nullptr || !tables->is_array()) {
    fail(file, "tables is not an array");
    return;
  }
  for (const JsonValue& t : tables->array) {
    const JsonValue* title = t.find("title");
    const JsonValue* columns = t.find("columns");
    const JsonValue* rows = t.find("rows");
    if (title == nullptr || !title->is_string() || columns == nullptr ||
        !columns->is_array() || rows == nullptr || !rows->is_array()) {
      fail(file, "table missing title/columns/rows");
      continue;
    }
    for (const JsonValue& row : rows->array) {
      if (!row.is_array() || row.array.size() != columns->array.size()) {
        fail(file, "table '" + title->string + "' row width != column count");
        break;
      }
    }
  }
}

// Adaptation-decision ledgers ({"adaptations": [...]}; docs/adaptation.md):
// every entry needs group ids, a signal/outcome from the closed vocabulary,
// the gate's pricing fields, and the member rosters.
void check_adapt_ledger(const std::string& file, const JsonValue& doc) {
  const JsonValue* entries = doc.find("adaptations");
  if (entries == nullptr || !entries->is_array()) {
    fail(file, "adaptations is not an array");
    return;
  }
  for (std::size_t i = 0; i < entries->array.size(); ++i) {
    const JsonValue& e = entries->array[i];
    const std::string at = "adaptations[" + std::to_string(i) + "]";
    if (!e.is_object()) {
      fail(file, at + " is not an object");
      continue;
    }
    for (const char* field : {"group_id", "time_s", "severity",
                              "predicted_old_s", "predicted_new_s", "cost_s"}) {
      const JsonValue* v = e.find(field);
      if (v == nullptr || !v->is_number()) {
        fail(file, at + " missing numeric " + field);
      }
    }
    check_name(file, at + " signal", e.find("signal"),
               hmpi::adapt::AdaptSignal::kBlameLink, hmpi::adapt::signal_name);
    check_name(file, at + " outcome", e.find("outcome"),
               hmpi::adapt::AdaptOutcomeKind::kSuppressed,
               hmpi::adapt::outcome_name);
    // realized_gain_s may be null (migration never measured) but must exist.
    if (e.find("realized_gain_s") == nullptr) {
      fail(file, at + " missing realized_gain_s");
    }
    for (const char* field : {"old_members", "new_members"}) {
      const JsonValue* v = e.find(field);
      if (v == nullptr || !v->is_array()) {
        fail(file, at + " missing " + field + " array");
      }
    }
  }
}

// Critical-path reports ({"critical_path": {...}}; docs/observability.md):
// numeric totals, a boolean completeness flag, and the machines / links /
// collectives / segments blame arrays with their identity fields.
void check_critpath(const std::string& file, const JsonValue& doc) {
  const JsonValue* cp = doc.find("critical_path");
  if (cp == nullptr || !cp->is_object()) {
    fail(file, "critical_path is not an object");
    return;
  }
  for (const char* field : {"makespan_s", "path_s", "compute_s", "transfer_s",
                            "overhead_s", "gap_s", "end_rank",
                            "events_dropped"}) {
    const JsonValue* v = cp->find(field);
    if (v == nullptr || !v->is_number()) {
      fail(file, std::string("critical_path missing numeric ") + field);
    }
  }
  const JsonValue* complete = cp->find("complete");
  if (complete == nullptr || complete->type != JsonValue::Type::kBool) {
    fail(file, "critical_path missing boolean complete");
  }
  for (const char* section : {"machines", "links", "collectives", "segments"}) {
    const JsonValue* s = cp->find(section);
    if (s == nullptr || !s->is_array()) {
      fail(file, std::string("critical_path missing ") + section + " array");
    }
  }
  if (const JsonValue* machines = cp->find("machines");
      machines != nullptr && machines->is_array()) {
    for (const JsonValue& m : machines->array) {
      if (m.find("processor") == nullptr || m.find("seconds") == nullptr) {
        fail(file, "critical_path machine entry missing processor/seconds");
        break;
      }
    }
  }
  if (const JsonValue* links = cp->find("links");
      links != nullptr && links->is_array()) {
    for (const JsonValue& l : links->array) {
      if (l.find("src") == nullptr || l.find("dst") == nullptr ||
          l.find("seconds") == nullptr) {
        fail(file, "critical_path link entry missing src/dst/seconds");
        break;
      }
    }
  }
  if (const JsonValue* segments = cp->find("segments");
      segments != nullptr && segments->is_array()) {
    double last_end = 0.0;
    for (std::size_t i = 0; i < segments->array.size(); ++i) {
      const JsonValue& s = segments->array[i];
      const std::string at = "segments[" + std::to_string(i) + "]";
      const JsonValue* kind = s.find("kind");
      const JsonValue* start = s.find("start_s");
      const JsonValue* end = s.find("end_s");
      if (kind == nullptr || !kind->is_string() || start == nullptr ||
          !start->is_number() || end == nullptr || !end->is_number()) {
        fail(file, at + " missing kind/start_s/end_s");
        continue;
      }
      check_name(file, at + " kind", kind,
                 hmpi::telemetry::PathSegment::Kind::kGap,
                 hmpi::telemetry::path_segment_kind_name);
      if (end->number < start->number) {
        fail(file, at + " ends before it starts");
      }
      if (i > 0 && start->number < last_end) {
        fail(file, at + " overlaps the previous segment");
      }
      last_end = end->number;
    }
  }
}

// Scheduler dumps ({"scheduler": {...}}; docs/scheduler.md): a policy name,
// numeric capacity/accounting summary, and per-job records whose states come
// from the closed JobState vocabulary.
void check_scheduler(const std::string& file, const JsonValue& doc) {
  const JsonValue* sched = doc.find("scheduler");
  if (sched == nullptr || !sched->is_object()) {
    fail(file, "scheduler is not an object");
    return;
  }
  check_name(file, "scheduler policy", sched->find("policy"),
             hmpi::sched::SchedPolicy::kPriority, hmpi::sched::policy_name);
  for (const char* field :
       {"machines", "slots_per_machine", "submitted", "dispatched",
        "completed", "preempted", "backfilled", "cancelled", "queue_depth",
        "running", "now_s", "makespan_s", "utilization", "mean_wait_s",
        "mean_turnaround_s", "throughput_jobs_per_s"}) {
    const JsonValue* v = sched->find(field);
    if (v == nullptr || !v->is_number()) {
      fail(file, std::string("scheduler missing numeric ") + field);
    }
  }
  const JsonValue* jobs = sched->find("jobs");
  if (jobs == nullptr || !jobs->is_array()) {
    fail(file, "scheduler missing jobs array");
    return;
  }
  for (std::size_t i = 0; i < jobs->array.size(); ++i) {
    const JsonValue& j = jobs->array[i];
    const std::string at = "jobs[" + std::to_string(i) + "]";
    if (!j.is_object()) {
      fail(file, at + " is not an object");
      continue;
    }
    for (const char* field : {"id", "priority", "arrival_s", "start_s",
                              "finish_s", "service_s", "preemptions",
                              "result"}) {
      const JsonValue* v = j.find(field);
      if (v == nullptr || !v->is_number()) {
        fail(file, at + " missing numeric " + field);
      }
    }
    check_name(file, at + " state", j.find("state"),
               hmpi::sched::JobState::kCancelled, hmpi::sched::job_state_name);
    const JsonValue* backfilled = j.find("backfilled");
    if (backfilled == nullptr ||
        backfilled->type != JsonValue::Type::kBool) {
      fail(file, at + " missing boolean backfilled");
    }
  }
}

void check_file(const std::string& file) {
  const int errors_before = errors;
  std::ifstream is(file);
  if (!is) {
    fail(file, "cannot open");
    return;
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  std::string error;
  const auto doc = hmpi::telemetry::parse_json(buffer.str(), &error);
  if (!doc) {
    fail(file, "invalid JSON: " + error);
    return;
  }
  if (!doc->is_object()) {
    fail(file, "top-level value is not an object");
    return;
  }
  if (doc->find("traceEvents") != nullptr) {
    check_chrome_trace(file, *doc);
  } else if (doc->find("counters") != nullptr) {
    check_metrics(file, *doc);
  } else if (doc->find("benchmark") != nullptr) {
    check_bench(file, *doc);
  } else if (doc->find("samples") != nullptr && doc->find("models") != nullptr) {
    // Prediction-ledger dump: well-formed JSON with both sections suffices.
  } else if (doc->find("adaptations") != nullptr) {
    check_adapt_ledger(file, *doc);
  } else if (doc->find("critical_path") != nullptr) {
    check_critpath(file, *doc);
  } else if (doc->find("scheduler") != nullptr) {
    check_scheduler(file, *doc);
  } else {
    fail(file, "unrecognised telemetry document shape");
    return;
  }
  if (errors == errors_before) std::printf("%s: OK\n", file.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: telemetry_check FILE.json...\n");
    return 2;
  }
  for (int i = 1; i < argc; ++i) check_file(argv[i]);
  return errors == 0 ? 0 : 1;
}
