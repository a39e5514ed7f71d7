// The simulated world: N processes (one fiber each, dispatched by the event
// engine on the calling thread) running over a hnoc::Cluster with
// deterministic virtual-time accounting.
//
// Time model (DESIGN.md §4):
//   * every process owns a virtual clock, advanced by compute() through the
//     cluster's speed/load model;
//   * a message sent at sender-time t over processor link (i -> j) starts at
//     max(t, link-busy), finishes at start + latency + bytes/bandwidth, and
//     sets the receiver's clock to max(receiver clock, finish) at the
//     matching receive (per-directed-processor-pair FIFO serialisation);
//   * sends are buffered (eager): the sender only pays a small overhead.
//
// For programs with deterministic message matching this yields virtual times
// that are independent of host scheduling, which is what lets a 9-machine
// 2003 testbed be reproduced faithfully on one core.
#pragma once

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "coll/policy.hpp"
#include "coll/schedule.hpp"
#include "hnoc/cluster.hpp"
#include "mpsim/engine.hpp"
#include "mpsim/fault.hpp"
#include "mpsim/mailbox.hpp"
#include "mpsim/types.hpp"
#include "support/error.hpp"
#include "telemetry/causal.hpp"

namespace hmpi::telemetry {
class Counter;
}  // namespace hmpi::telemetry

namespace hmpi::mp {

class World;
class Comm;

/// Execution context of one simulated process. Created by World::run and
/// passed to the process body; only that process may use it.
class Proc {
 public:
  /// Rank of this process in the world (0..nprocs-1).
  int rank() const noexcept { return rank_; }
  /// Total number of processes in the world.
  int nprocs() const noexcept;
  /// Index of the physical processor this process runs on.
  int processor() const noexcept { return processor_; }

  /// The ground-truth cluster (for workload code that needs topology; the
  /// HMPI runtime itself deliberately reads speeds only via Recon).
  const hnoc::Cluster& cluster() const noexcept;

  /// Current virtual time of this process (seconds).
  double clock() const noexcept { return clock_; }

  /// Executes `units` benchmark units of computation: advances the virtual
  /// clock through the processor's speed/load model.
  void compute(double units);

  /// Advances the virtual clock by raw `seconds` (e.g. modelled I/O).
  void elapse(double seconds);

  /// The world communicator (context 0, all processes).
  Comm world_comm();

  Stats& stats() noexcept { return stats_; }
  const Stats& stats() const noexcept { return stats_; }

  World& world() noexcept { return *world_; }

 private:
  friend class World;
  friend class Comm;

  Proc(World* world, int rank, int processor)
      : world_(world), rank_(rank), processor_(processor) {}

  void set_clock(double t) noexcept { clock_ = t; }

  /// Dies (marks this process dead and unwinds via ProcessKilledError) if the
  /// fault plan scheduled a crash at or before the current virtual clock.
  /// Called at every fault point: compute, elapse, send, receive.
  void check_crash();

  /// Terminates this process at virtual time `t` (never returns).
  [[noreturn]] void die(double t);

  /// Next per-destination message index for deterministic drop/delay
  /// decisions (only the owning process touches it).
  std::uint64_t next_fault_sequence(int dst_world) {
    return next_sequence(fault_seq_, dst_world);
  }

  /// Next per-destination causal sequence number: stamped on every send (and
  /// its Envelope) so the causal log pairs sends with receives. Program
  /// order per destination, hence independent of dispatch order.
  std::uint32_t next_causal_sequence(int dst_world) {
    return next_sequence(causal_seq_, dst_world);
  }

  /// Post-increments `dst_world`'s counter in `seqs`, a flat table sorted by
  /// destination (a rank sends to few destinations, so a lookup is a short
  /// search and a new destination no node allocation).
  template <typename Seq>
  static Seq next_sequence(std::vector<std::pair<int, Seq>>& seqs,
                           int dst_world) {
    auto it = std::lower_bound(seqs.begin(), seqs.end(), dst_world,
                               [](const std::pair<int, Seq>& entry, int dst) {
                                 return entry.first < dst;
                               });
    if (it == seqs.end() || it->first != dst_world) {
      it = seqs.insert(it, {dst_world, Seq{0}});
    }
    return it->second++;
  }

  /// A CausalEvent with this process's identity and the innermost active
  /// collective annotation filled in; the caller sets kind-specific fields.
  telemetry::CausalEvent causal_event() const;

  /// Collective annotation stack, pushed in Comm::coll_select and popped in
  /// Comm::coll_finish so every causal event inside the collective carries
  /// its (op, algo).
  void push_coll_note(std::int16_t op, std::int16_t algo) {
    coll_notes_.emplace_back(op, algo);
  }
  void pop_coll_note() {
    if (!coll_notes_.empty()) coll_notes_.pop_back();
  }

  // Per-machine telemetry (machine.<processor>.*) with the Counter pointers
  // cached so the simulation hot paths skip the registry lookup.
  void note_compute_seconds(double seconds);
  void note_message_sent(std::size_t bytes);

  World* world_;
  int rank_;
  int processor_;
  double clock_ = 0.0;
  /// Scheduled crash time from the fault plan (infinity when none); cached
  /// here so fault points are one comparison in the common case.
  double crash_time_ = std::numeric_limits<double>::infinity();
  std::vector<std::pair<int, std::uint64_t>> fault_seq_;
  std::vector<std::pair<int, std::uint32_t>> causal_seq_;
  std::vector<std::pair<std::int16_t, std::int16_t>> coll_notes_;
  Stats stats_;
  telemetry::Counter* compute_seconds_counter_ = nullptr;
  telemetry::Counter* sent_bytes_counter_ = nullptr;
  telemetry::Counter* messages_sent_counter_ = nullptr;
};

class Tracer;

/// Tunables of a simulated run. (Namespace-scope so it can be used as a
/// defaulted argument of World's member functions.)
struct WorldOptions {
  /// Stack size per process fiber. 0 resolves HMPI_SIM_STACK_KB, default
  /// 512 KiB (virtual; guard-paged, so RSS only covers touched pages).
  std::size_t fiber_stack_bytes = 0;
  /// Virtual per-message sender-side overhead (LogP's "o").
  double send_overhead_s = 5e-6;
  /// Virtual per-message receiver-side overhead.
  double recv_overhead_s = 5e-6;
  /// Optional trace view (not owned; must outlive the run). The world
  /// attaches its causal log, which then keeps every event (docs/
  /// observability.md).
  Tracer* tracer = nullptr;
  /// Faults to inject (crashes, link outages, message drop/delay). The
  /// default (empty) plan is zero-cost: no virtual time or traffic differs
  /// from a run without the fault layer. Calendars from the cluster's
  /// per-processor Availability are merged in at World construction.
  FaultPlan faults;
  /// Initial value of the world's one collective policy (World::coll_policy,
  /// docs/collectives.md). An op left at kAuto defers to the installed
  /// selector, or — when none is installed — to the legacy hard-coded
  /// algorithm, reproducing its virtual timing exactly.
  coll::CollPolicy coll;
  /// Causal-log retention (docs/observability.md): kAuto resolves HMPI_PROF
  /// (unset -> the always-on per-rank ring, "1"/"full" -> unbounded full
  /// mode, "0"/"off" -> disabled). A world with a tracer keeps its whole
  /// log whatever this says. The log never changes virtual timing — only
  /// how much causal history a report can walk.
  telemetry::ProfMode prof = telemetry::ProfMode::kAuto;
};

/// Owns the processes, mailboxes, and link state of one simulated run.
class World {
 public:
  using Options = WorldOptions;

  struct RunResult {
    std::vector<double> clocks;  ///< Final virtual clock per process.
    std::vector<Stats> stats;    ///< Counters per process.
    double makespan = 0.0;       ///< max(clocks).
    /// World ranks killed by injected faults (crash time == their clock).
    std::vector<int> failed_ranks;
    /// The run's causal log (shared: the World itself is destroyed when run
    /// returns). Feed to telemetry::analyze_critical_path.
    std::shared_ptr<const telemetry::CausalLog> causal;
  };

  /// Runs `nprocs = placement.size()` processes; process i executes `body`
  /// on processor `placement[i]` of `cluster`. Blocks until every process
  /// returns; rethrows the first process exception (after releasing the
  /// others). The cluster must outlive the call. Throws InvalidArgument when
  /// called from inside a simulated process.
  static RunResult run(const hnoc::Cluster& cluster, std::vector<int> placement,
                       const std::function<void(Proc&)>& body,
                       Options options = Options());

  /// Convenience: one process per processor, in cluster order.
  static RunResult run_one_per_processor(
      const hnoc::Cluster& cluster, const std::function<void(Proc&)>& body,
      Options options = Options());

  // --- internals used by Comm and the HMPI runtime -------------------------

  const hnoc::Cluster& cluster() const noexcept { return *cluster_; }
  const Options& options() const noexcept { return options_; }
  int nprocs() const noexcept { return static_cast<int>(placement_.size()); }
  int processor_of(int world_rank) const {
    support::require(world_rank >= 0 && world_rank < nprocs(),
                     "world rank out of range");
    return placement_[static_cast<std::size_t>(world_rank)];
  }

  Mailbox& mailbox(int world_rank) {
    support::require(world_rank >= 0 && world_rank < nprocs(),
                     "world rank out of range");
    return *mailboxes_[static_cast<std::size_t>(world_rank)];
  }

  struct LinkReservation {
    double start = 0.0;
    double finish = 0.0;
    bool outage_deferred = false;  ///< Start was pushed past a link outage.
  };

  /// Reserves the directed link between two processors for a transfer of
  /// `bytes` that is ready at `ready_time`. Honours fault-plan link outages:
  /// a transfer may not start inside an outage window.
  LinkReservation reserve_link(int src_proc, int dst_proc, double ready_time,
                               std::size_t bytes);

  /// Records that the transfer of `send` (already in its rank's log) waited
  /// for a link outage until `start`: a link_blocked interval, which only a
  /// traced log keeps.
  void note_link_blocked(telemetry::CausalEvent send, double start);

  /// Allocates a fresh communicator context id (world-unique).
  int alloc_context() { return next_context_.fetch_add(1); }

  /// True once any process has failed with a real error (not an injected
  /// crash); blocked receives then unblock.
  bool aborted() const noexcept { return aborted_.load(); }

  // --- per-process liveness (injected faults) -------------------------------

  /// False once `world_rank` was killed by the fault plan. (A process that
  /// exits its body normally stays "alive" — liveness tracks failures, not
  /// completion.)
  bool alive(int world_rank) const {
    support::require(world_rank >= 0 && world_rank < nprocs(),
                     "world rank out of range");
    return alive_[static_cast<std::size_t>(world_rank)].load();
  }

  /// Virtual time `world_rank` died, or infinity while it lives.
  double death_time(int world_rank) const;

  /// True once any process was killed by the fault plan.
  bool any_failed() const noexcept { return failed_count_.load() > 0; }

  /// Kills `world_rank` at virtual time `t`: flips liveness, records a crash
  /// event, wakes every blocked receiver and death watcher. Called by
  /// the dying process itself at a fault point; idempotent.
  void mark_dead(int world_rank, double t);

  /// Registers a callback invoked (once per death, from the dying process)
  /// after liveness flips — used by higher layers to wake their own waiters.
  /// Callbacks must be registered before processes start communicating and
  /// must not throw.
  void on_death(std::function<void(int world_rank, double t)> callback);

  // --- context revocation (failure propagation) -----------------------------

  /// Revokes a communicator context: every receive blocked on it (and every
  /// future receive posted on it with no matching message already queued)
  /// raises RevokedError. The ULFM MPI_Comm_revoke analogue; idempotent.
  void revoke_context(int context);

  bool context_revoked(int context) const;

  // --- deadlock diagnosis ---------------------------------------------------

  /// Registers/clears the receive `world_rank` is currently blocked in so a
  /// deadlock diagnosis can enumerate who waits for what.
  void note_recv_begin(int world_rank, int src, int tag, int context,
                       double clock);
  void note_recv_end(int world_rank);

  /// Human-readable dump of every rank's blocked receive and queued
  /// (delivered but unreceived) envelopes. Appended to DeadlockError.
  std::string describe_stuck_state() const;

  /// Type-erased shared slot for higher layers (the HMPI runtime state).
  /// The factory runs exactly once across all processes.
  std::shared_ptr<void> get_or_create_shared(
      const std::function<std::shared_ptr<void>()>& factory);

  // --- collective algorithm selection (docs/collectives.md) ----------------

  /// The world's one collective policy: WorldOptions::coll, then whatever
  /// set_coll_policy last wrote (the runtime fills its kAuto ops at Init,
  /// and Runtime::coll_set_policy replaces it). Every process fiber runs on
  /// the thread that called run, so no lock is needed; write it between
  /// collectives, or members of an in-flight one may disagree.
  const coll::CollPolicy& coll_policy() const noexcept { return coll_policy_; }
  void set_coll_policy(const coll::CollPolicy& policy) { coll_policy_ = policy; }

  /// Installs the selector consulted for every op the world policy leaves
  /// at kAuto (the runtime installs its CollTuner here from the
  /// get_or_create_shared factory, before its Init barrier, so every
  /// process's first collective already resolves through it).
  void set_coll_selector(std::shared_ptr<coll::Selector> selector) {
    coll_selector_ = std::move(selector);
  }

  /// Resolves `op` for `bytes` of payload over `members` (world ranks, in
  /// communicator-rank order) below a communicator's own policy: the world
  /// policy's pin, else the selector's cost argmin over the members'
  /// machines, else coll::legacy_default. Only the argmin is priced.
  coll::Choice coll_choice(coll::CollOp op, std::span<const int> members,
                           std::size_t bytes) const;

  /// The schedule for `key`, built by the first member of a collective call
  /// to ask and shared with every other member (and with any concurrent call
  /// on an equal key). The World holds only weak references, so a schedule
  /// lives exactly as long as some member is executing it.
  std::shared_ptr<const coll::Schedule> coll_schedule(const coll::ScheduleKey& key);

  /// The run's causal log (docs/observability.md). Always present; mode kOff
  /// makes record() a no-op.
  telemetry::CausalLog& causal_log() noexcept { return *causal_; }
  const telemetry::CausalLog& causal_log() const noexcept { return *causal_; }

 private:
  World(const hnoc::Cluster& cluster, std::vector<int> placement,
        Options options);

  void abort_all();

  const hnoc::Cluster* cluster_;
  std::vector<int> placement_;
  Options options_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::shared_ptr<const std::vector<int>> world_members_;

  std::mutex link_mutex_;
  std::map<std::pair<int, int>, double> link_busy_;

  std::atomic<int> next_context_{1};  // context 0 is the world communicator
  std::atomic<bool> aborted_{false};

  // Per-process liveness; atomics so fault points and hopeless-predicates
  // read it lock-free. Everything else fault-related sits behind fault_mutex_.
  std::unique_ptr<std::atomic<bool>[]> alive_;
  std::atomic<int> failed_count_{0};
  mutable std::mutex fault_mutex_;
  std::map<int, double> death_times_;
  std::set<int> revoked_contexts_;
  std::vector<std::function<void(int, double)>> death_callbacks_;

  struct PendingRecv {
    bool active = false;  ///< The rank is blocked in this receive.
    int src = kAnySource;
    int tag = kAnyTag;
    int context = 0;
    double clock = 0.0;
  };
  mutable std::mutex pending_mutex_;
  /// One slot per world rank (describe_stuck_state reads them all).
  std::vector<PendingRecv> pending_recvs_;

  std::mutex shared_mutex_;
  std::shared_ptr<void> shared_;
  coll::CollPolicy coll_policy_;
  std::shared_ptr<coll::Selector> coll_selector_;

  std::mutex schedule_mutex_;
  std::map<coll::ScheduleKey, std::weak_ptr<const coll::Schedule>> schedules_;

  /// Shared so RunResult can export it past the World's destruction.
  std::shared_ptr<telemetry::CausalLog> causal_;

  friend class Comm;
  friend class Proc;
};

}  // namespace hmpi::mp
