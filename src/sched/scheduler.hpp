// hmpictld — the multi-tenant scheduler service (docs/scheduler.md).
//
// Modeled on the slurmctld split: a job queue (job.hpp), partitions and
// backfill reservations (partition.hpp), and a selection layer (selector.hpp
// over capacity.hpp) that reuses the HMPI group-selection pipeline against
// residual capacity. The Scheduler itself is a discrete-event simulator over
// virtual time: arrivals and completions are heap events, and after every
// event a scheduling pass runs priority aging, conservative backfill, and
// preemption.
//
// A pass costs what it decides. Jobs live in a flat table indexed by id - 1,
// with a list of the running ones in ascending id order, so the preemption
// and reservation scans walk only running jobs. The pass reads the queue
// head and at most `backfill_depth` jobs behind it, so it ranks only that
// prefix (a partial sort under the same total order a full sort would use).
//
// Jobs with a body execute as real simulated HMPI runs on the event engine,
// so their measured makespan — the service time — never depends on host
// thread scheduling. Jobs without one are serviced for the estimator's
// predicted makespan.
//
// Thread safety: one coarse mutex guards every public operation, so host
// threads can share one scheduler.
#pragma once

#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "estimator/estimate_cache.hpp"
#include "estimator/plan.hpp"
#include "mpsim/trace.hpp"
#include "sched/capacity.hpp"
#include "sched/job.hpp"
#include "sched/partition.hpp"
#include "sched/selector.hpp"

namespace hmpi::sched {

/// Queueing discipline.
enum class SchedPolicy {
  kFifo,      ///< Arrival order, exclusive leases, no backfill/preemption —
              ///< the slurm-without-plugins baseline A13 compares against.
  kPriority,  ///< Priority + aging, conservative backfill, preemption.
};

const char* policy_name(SchedPolicy policy);

/// Tunables (RuntimeConfig::sched; HMPI_SCHED_* overrides).
struct SchedConfig {
  SchedPolicy policy = SchedPolicy::kPriority;
  /// Concurrent leases per machine (1 = exclusive nodes). kFifo forces 1.
  int slots_per_machine = 2;
  /// Conservative backfill: low-priority jobs slide into holes that cannot
  /// delay the queue head's reservation. kFifo forces off.
  bool backfill = true;
  /// Pending jobs (beyond the head) considered per backfill scan.
  int backfill_depth = 16;
  /// Preemption of lower-priority running jobs for a blocked head. kFifo
  /// forces off.
  bool preempt = true;
  /// A running job is a victim only when its priority + gap <= the blocked
  /// head's static priority.
  int preempt_priority_gap = 1;
  /// Preemptions one job can suffer before it becomes un-preemptable.
  int max_preemptions_per_job = 2;
  /// Priority units a pending job gains per virtual second waited (aging
  /// prevents starvation under a stream of high-priority arrivals).
  double aging_weight = 0.01;
  /// Run job bodies as simulated HMPI runs (measured service). Off inside
  /// the HMPI runtime: a nested World::run cannot start from a simulated
  /// process, so the C API schedules on estimates only.
  bool execute = false;
  /// Mapper for placement: "" or "greedy" (default; the scheduler prices
  /// thousands of placements per trace), "swap-refine", "annealing",
  /// "exhaustive", "portfolio", "beam", "annealing-ws". Any other name
  /// throws InvalidArgument.
  std::string mapper;
  /// Estimator overheads for placement pricing.
  est::EstimateOptions estimate;
  /// Optional trace (borrowed): kSchedDispatch/kSchedPreempt instants go
  /// into its host log.
  mp::Tracer* tracer = nullptr;
};

/// Applies HMPI_SCHED_POLICY / _SLOTS / _BACKFILL / _BACKFILL_DEPTH /
/// _PREEMPT / _PREEMPT_GAP / _AGING over `base` (unset or empty vars keep
/// base). Policies are fifo|priority, _SLOTS is a whole int >= 1,
/// _BACKFILL_DEPTH one >= 0, _PREEMPT_GAP any whole int, and _AGING a
/// finite number >= 0; anything else throws InvalidArgument naming the knob
/// and the accepted spellings (support/env.hpp).
SchedConfig sched_config_with_env(SchedConfig base);

/// Aggregate accounting (sched.* metrics mirror this).
struct SchedStats {
  long long submitted = 0;
  long long dispatched = 0;  ///< Dispatch events (re-dispatches included).
  long long completed = 0;
  long long preempted = 0;
  long long backfilled = 0;
  long long cancelled = 0;
  int queue_depth = 0;       ///< Pending jobs now.
  int queue_depth_peak = 0;
  int running = 0;
  double now_s = 0.0;             ///< Scheduler virtual clock.
  double makespan_s = 0.0;        ///< Last completion time (0 when none).
  double utilization = 0.0;       ///< Time-weighted busy-machine fraction.
  double mean_wait_s = 0.0;       ///< arrival -> first dispatch.
  double mean_turnaround_s = 0.0; ///< arrival -> completion.
  double throughput_jobs_per_s = 0.0;  ///< completed / makespan.
};

/// The scheduler service. See file comment.
class Scheduler {
 public:
  /// The cluster must outlive the scheduler. `partition.slots_per_machine`
  /// is taken from the (policy-normalised) config.
  explicit Scheduler(const hnoc::Cluster& cluster, SchedConfig config = {},
                     Partition partition = {});

  /// Enqueues a job; its arrival fires at max(spec.arrival_s, now). Throws
  /// InvalidArgument when the model is null or the instance can never fit
  /// the partition.
  JobId submit(JobSpec spec);

  /// Status of a job; nullopt for an unknown id.
  std::optional<JobInfo> poll(JobId id) const;

  /// Cancels a pending or running job; false when unknown or completed.
  bool cancel(JobId id);

  /// Processes the next event (arrival or completion) and runs a scheduling
  /// pass; false when no events remain.
  bool step();

  /// Drains the event heap, then publishes the sched.* gauges.
  void run_until_idle();

  /// Scheduler virtual time (seconds).
  double now() const;

  SchedStats stats() const;

  /// `{"scheduler": {...}}` — summary + per-job records; the document shape
  /// tools/telemetry_check validates.
  void stats_json(std::ostream& os) const;

  const SchedConfig& config() const noexcept { return config_; }

  /// Lease/overlay state; read at quiescent points (tests, reporting).
  const CapacityLedger& ledger() const noexcept { return ledger_; }

  /// Queue head's backfill shadow from the last scheduling pass (nullopt
  /// when the head dispatched).
  std::optional<Reservation> reservation() const;

  /// Re-seeds the overlay's base speeds from a recon-refreshed estimate
  /// vector (Runtime integration).
  void refresh_speeds(const std::vector<double>& speeds);

  /// Reference result of `spec` run alone on an idle cluster: selects a
  /// placement at base speeds and runs the body; 0 when the spec has no
  /// body. The determinism oracle for the preempt->requeue->re-dispatch
  /// property (tests/sched/preempt_determinism_test.cpp). Like World::run,
  /// it throws InvalidArgument inside a simulated process.
  static std::uint64_t uncontended_run(const hnoc::Cluster& cluster,
                                       const JobSpec& spec);

 private:
  struct Record {
    JobSpec spec;
    JobInfo info;
    /// Instantiated once at submit (optional only because ModelInstance is
    /// not default-constructible; always engaged after submit).
    std::optional<pmdl::ModelInstance> instance;
    double remaining_frac = 1.0;   ///< Fraction of full service still owed.
    double full_service_s = 0.0;   ///< Uninterrupted service length.
    double seg_start_s = 0.0;      ///< Current segment's dispatch time.
    double seg_service_s = 0.0;    ///< Current segment's length.
    std::uint64_t generation = 0;  ///< Invalidates stale completion events.
  };

  struct Event {
    enum class Type { kArrival, kCompletion };
    double time = 0.0;
    std::uint64_t seq = 0;  ///< Deterministic tie-break for equal times.
    Type type = Type::kArrival;
    JobId job = -1;
    std::uint64_t generation = 0;  ///< kCompletion: must match the record.
    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  Record& record(JobId id) { return jobs_[static_cast<std::size_t>(id - 1)]; }
  const Record& record(JobId id) const {
    return jobs_[static_cast<std::size_t>(id - 1)];
  }
  /// Whether this scheduler issued `id`.
  bool known(JobId id) const {
    return id >= 1 && id <= static_cast<JobId>(jobs_.size());
  }
  bool step_locked();
  void schedule_pass();
  /// The first `count` pending jobs in queue order: effective priority
  /// descending, then arrival, then id.
  std::vector<JobId> ranked_pending(std::size_t count) const;
  double effective_priority(const Record& rec) const;
  bool try_dispatch(Record& rec, bool backfilled);
  void dispatch(Record& rec, const Placement& placement, bool backfilled);
  void preempt_job(Record& rec);
  void complete_job(Record& rec);
  /// Releases the job's leases and drops it from the running list.
  void stop_running(Record& rec);
  void note_lease(int machine, JobId job);
  void note_release(int machine, JobId job);
  double busy_seconds_closed_at(double t) const;
  void push_event(Event event);
  void record_trace(telemetry::CausalEvent::Kind kind, const Record& rec,
                    double predicted_s, double progress) const;
  std::uint64_t execute_body(Record& rec);
  hnoc::Cluster contended_clone(const std::vector<int>& machines) const;
  void publish_gauges();
  map::SearchContext search_context();

  mutable std::mutex mutex_;
  const hnoc::Cluster* cluster_;
  SchedConfig config_;
  CapacityLedger ledger_;
  std::unique_ptr<map::Mapper> mapper_;
  Selector selector_;
  est::EstimateCache estimate_cache_;
  est::PlanCache plan_cache_;

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::vector<Record> jobs_;     ///< Job `id` at index id - 1 (ids are dense).
  std::vector<JobId> pending_;
  std::vector<JobId> running_;   ///< Ascending ids.
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  std::optional<Reservation> reservation_;

  SchedStats totals_;
  long long waits_observed_ = 0;
  double wait_sum_s_ = 0.0;
  double turnaround_sum_s_ = 0.0;
  double last_finish_s_ = 0.0;
  std::vector<double> busy_since_;  ///< Per machine; <0 when idle.
  std::vector<double> busy_total_s_;
};

}  // namespace hmpi::sched
