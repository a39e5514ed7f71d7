// Virtual-time event tracing for simulated runs.
//
// Attach a Tracer through WorldOptions::tracer to record every message and
// computation with its virtual start/end times. Useful for debugging
// schedules, for the protocol ablation bench, and for post-hoc analysis:
// write_csv emits one line per event, and to_chrome_events /
// write_chrome_json export the same timeline in Chrome `trace_event` format
// for Perfetto (docs/observability.md).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <mutex>
#include <span>
#include <vector>

namespace hmpi::telemetry {
struct ChromeEvent;
}  // namespace hmpi::telemetry

namespace hmpi::mp {

/// One recorded event.
struct TraceEvent {
  enum class Kind {
    kSend,
    kRecv,
    kCompute,
    kCrash,        ///< Process killed by an injected fault (FaultPlan).
    kDrop,         ///< Message silently dropped by the fault plan.
    kDelay,        ///< Message delayed by the fault plan.
    kLinkBlocked,  ///< Transfer deferred past a link outage window.
    kSuspect,      ///< Runtime marked a processor suspect (recon timeout).
    kRecover,      ///< Runtime cleared a processor's suspect mark.
    kMapperSearch, ///< A group-selection search finished (timeof or the
                   ///< parent side of group_create); details in `search`.
    kMapperBatch,  ///< That search used the batch-scoring path (SoA
                   ///< estimation); details in `batch`. Emitted alongside
                   ///< kMapperSearch, never instead of it.
    kCollSelect,   ///< A collective resolved its algorithm (recorded by the
                   ///< communicator's rank 0 only); details in `coll`.
    kEstCompile,   ///< A performance model was compiled to the cost IR
                   ///< (estimator/plan.hpp); details in `compile`.
    kAdaptTrigger, ///< The adaptation controller asked for a migration
                   ///< (hmpi/adapt.hpp); details in `adapt`.
    kAdaptMigrate, ///< A guarded live migration committed; `adapt` carries
                   ///< the predicted gain.
    kAdaptRollback,///< A migration priced worse than the old roster and was
                   ///< rolled back; details in `adapt`.
    kSchedDispatch,///< The scheduler dispatched (or re-dispatched) a job
                   ///< (sched/scheduler.hpp); details in `sched`.
    kSchedPreempt, ///< The scheduler revoked a running job's leases and
                   ///< requeued it; details in `sched`.
  };

  /// Named payload for kMapperSearch (peer/tag/bytes/units are unused —
  /// search cost lives here and in the telemetry metrics registry).
  struct MapperSearch {
    long long evaluations = 0;  ///< Estimator evaluations performed.
    double hit_rate = 0.0;      ///< Estimate-cache hit rate in [0, 1].
    int threads = 1;            ///< Worker threads used by the search.
    double wall_seconds = 0.0;  ///< Real (not virtual) search duration.
  };

  /// Named payload for kMapperBatch (one instant per batch search; the
  /// per-chunk breakdown lives in the metrics registry).
  struct MapperBatch {
    long long chunks = 0;      ///< Batch scoring requests issued.
    long long candidates = 0;  ///< Selections scored through the batch path.
  };

  /// Named payload for kEstCompile.
  struct EstCompile {
    long long ops = 0;      ///< Scheme ops in the compiled plan (op_count()).
    double seconds = 0.0;   ///< Real (not virtual) compile duration.
  };

  /// Named payload for the kAdapt* kinds (recorded by the group parent
  /// only; the signal integer is hmpi::adapt::AdaptSignal).
  struct Adapt {
    long long group_id = -1;       ///< Group the decision concerned.
    int signal = 0;                ///< adapt::AdaptSignal that fired.
    double severity = 0.0;         ///< Smoothed violation level.
    double predicted_gain_s = 0.0; ///< Gate-time predicted improvement.
  };

  /// Named payload for the kSched* kinds (recorded by the scheduler on the
  /// virtual timeline; world_rank/processor stay -1 — the acting entity is
  /// the scheduler service, not a simulated process).
  struct Sched {
    long long job = -1;        ///< Scheduler job id.
    int priority = 0;          ///< Static priority of the job.
    int procs = 0;             ///< Abstract processors (slots leased).
    double predicted_s = 0.0;  ///< Segment service length at dispatch time.
    double progress = 0.0;     ///< kSchedPreempt: completed segment fraction.
  };

  /// Named payload for kCollSelect (`bytes` carries the payload size; the
  /// op/algo integers are hmpi::coll::CollOp and its per-op algorithm enum,
  /// exported by name in the Chrome-trace args).
  struct CollSelect {
    int op = -1;                ///< coll::CollOp of the collective.
    int algo = 0;               ///< Selected per-op algorithm value.
    double predicted_s = -1.0;  ///< Tuner-predicted duration; < 0 if none.
  };

  Kind kind = Kind::kCompute;
  int world_rank = -1;  ///< Acting process.
  int processor = -1;   ///< Its machine.
  int peer = -1;        ///< Destination (send) / source (recv) world rank.
  int tag = 0;
  int context = 0;
  std::size_t bytes = 0;   ///< Message size (logical bytes).
  double units = 0.0;      ///< Computation volume (kCompute only).
  double start_time = 0.0; ///< Virtual time the event began.
  double end_time = 0.0;   ///< Virtual completion (message arrival for sends).
  MapperSearch search;     ///< kMapperSearch only.
  MapperBatch batch;       ///< kMapperBatch only.
  EstCompile compile;      ///< kEstCompile only.
  CollSelect coll;         ///< kCollSelect only.
  Adapt adapt;             ///< kAdaptTrigger/kAdaptMigrate/kAdaptRollback.
  Sched sched;             ///< kSchedDispatch/kSchedPreempt only.
};

/// Stable lower-case name for an event kind ("send", "mapper_search", ...).
const char* kind_name(TraceEvent::Kind kind);

/// Converts events to Chrome-trace form on the virtual timeline
/// (pid = telemetry::kVirtualPid, tid = world_rank, ts = virtual seconds
/// scaled to microseconds). Instantaneous kinds (crash, drop, suspect,
/// recover, mapper_search, est_compile, adapt_*, sched_*) become 'i'
/// events; the rest are 'X'.
std::vector<telemetry::ChromeEvent> to_chrome_events(
    std::span<const TraceEvent> events);

/// Thread-safe collector of TraceEvents for one run.
class Tracer {
 public:
  void record(const TraceEvent& event);

  /// All events, sorted by (start_time, world_rank). Call after World::run.
  std::vector<TraceEvent> events() const;

  /// `kind,world_rank,processor,peer,tag,context,bytes,units,start,end`
  /// lines, header included.
  void write_csv(std::ostream& os) const;

  /// Chrome `trace_event` JSON of events() (virtual timeline only; the
  /// runtime's combined exporter also merges wall-clock spans).
  void write_chrome_json(std::ostream& os) const;

  std::size_t size() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
};

}  // namespace hmpi::mp
