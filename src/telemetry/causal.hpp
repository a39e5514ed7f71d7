// The virtual-timeline event record, its catalogue and its log
// (docs/observability.md).
//
// Every event on the simulator's virtual timeline is one CausalEvent,
// recorded once: compute and elapse intervals, send and receive endpoints
// (with the per-(sender, destination) sequence number that pairs them),
// crashes, and — in a traced world only — the link layer's, the runtime's
// and the scheduler's instants. Events carry the innermost active
// collective (op, algo), so a path walk can attribute every second of the
// makespan to a machine, a link, or a collective algorithm.
//
// event_catalog() declares every kind once: its name, whether it is an
// interval or an instant, its role on the critical path, whether an
// untraced log keeps it, and which record fields the trace exports read.
// The critical-path walk (telemetry/critpath.hpp) and the trace views
// (mpsim/trace.hpp) read the record through it.
//
// Storage is sharded per world rank: each simulated process appends only to
// its own shard (the same single-writer discipline as Proc's clock), so
// recording needs no cross-rank coordination; the per-shard mutex exists
// solely so a snapshot taken while other ranks still run (the host exporting
// a report mid-world) is race-free. Three modes:
//
//   kRing — the default, always on: a fixed-capacity ring per rank,
//           overwriting the oldest events. The path walk reports
//           `complete = false` when it hits the overwritten horizon.
//   kFull — opt-in (`HMPI_PROF=1` / WorldOptions::prof): unbounded append,
//           the whole run reconstructible.
//   kOff  — recording disabled entirely.
//
// A traced log (a world with an mp::Tracer attached) is always kFull and
// also keeps the traced-only kinds; an untraced log drops them, so the ring
// holds only the events the path walk reads.
//
// This header lives in telemetry (below mpsim in the build graph) so the
// critical-path analyzer can consume the log without linking the simulator.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

namespace hmpi::telemetry {

/// One event on the virtual timeline. Times are virtual seconds. Message
/// kinds read every field by its name; the other kinds keep their own
/// quantities in the integer fields, `value` and (instants) `t1`, and
/// event_catalog() names each one.
struct CausalEvent {
  enum class Kind : std::uint8_t {
    kCompute,
    kElapse,
    kSend,
    kDrop,
    kDelay,
    kRecv,
    kLinkBlocked,
    kCrash,
    kSuspect,
    kRecover,
    kMapperSearch,
    kMapperBatch,
    kCollSelect,
    kEstCompile,
    kAdaptTrigger,
    kAdaptMigrate,
    kAdaptRollback,
    kSchedDispatch,
    kSchedPreempt,
  };

  Kind kind = Kind::kCompute;
  /// Innermost active collective when the event fired; -1 = none. The values
  /// are coll::CollOp / per-op algorithm integers — telemetry stores them
  /// opaquely and the report writer resolves names.
  std::int16_t coll_op = -1;
  std::int16_t coll_algo = 0;
  std::int32_t rank = -1;     ///< Acting world rank (-1: the scheduler).
  std::int32_t proc = -1;     ///< Its machine (suspect/recover: the suspect).
  std::int32_t peer = -1;     ///< Send: dst rank. Recv: src rank.
  std::int32_t tag = 0;
  std::int32_t context = 0;   ///< Communicator context of a message.
  std::uint32_t seq = 0;      ///< Per-(sender, dst) sequence; pairs send/recv.
  std::uint64_t bytes = 0;    ///< Logical message bytes.
  double t0 = 0.0;            ///< Virtual start (clock before the advance).
  double t1 = 0.0;            ///< Virtual end (clock after the advance).
  double value = 0.0;         ///< Message arrival; compute units.
};
static_assert(sizeof(CausalEvent) == 64,
              "the always-on ring holds 256 of these per rank");

/// Where a kind sits on the critical path (telemetry/critpath.hpp).
enum class PathRole : std::uint8_t {
  kNone,     ///< Annotates the timeline; the walk skips it.
  kCompute,  ///< Machine time.
  kElapse,   ///< Modelled local time, blamed like compute.
  kSend,     ///< Send overhead; `value` is the message's arrival.
  kRecv,     ///< Receive; `value` is the matched message's arrival.
};

/// A record field an export reads.
enum class EventField : std::uint8_t {
  kZero,  ///< No field: the export writes 0.
  kProc,
  kPeer,
  kTag,
  kContext,
  kBytes,  ///< Read as a signed 64-bit count.
  kT0,
  kT1,
  kValue,
  kCollOp,    ///< Exported by name (coll::op_name).
  kCollAlgo,  ///< Exported by name (coll::algo_name of coll_op).
};

/// One Chrome-trace argument: its key and the field it reads.
struct EventArg {
  std::string_view name;
  EventField field = EventField::kZero;
};

/// One entry of the event catalogue.
struct EventSpec {
  CausalEvent::Kind kind;
  std::string_view name;
  /// Chrome phase: 'X' (interval, `dur` = end - t0) or 'i' (instant); 0 for
  /// a kind the trace exports leave out.
  char phase;
  PathRole path;
  bool traced_only;  ///< Kept only in a traced log.
  /// The CSV row reads peer, tag, context and bytes from their fields, start
  /// from t0, and these two columns from the fields named here.
  EventField units;
  EventField end;
  /// Chrome args after `processor`, which every exported event carries.
  std::array<EventArg, 5> args;
  std::string_view meaning;  ///< One line; docs/observability.md shows it.
};

/// Every kind of virtual-timeline event, in Kind order: the only
/// declaration of its name, phase and export columns.
std::span<const EventSpec> event_catalog();

/// The catalogue entry of `kind`.
const EventSpec& event_spec(CausalEvent::Kind kind);

/// Stable lower-case name of a kind ("send", "mapper_search", ...).
std::string_view kind_name(CausalEvent::Kind kind);

/// The number an export writes for `field` of `event` (kCollOp and
/// kCollAlgo read the raw integers).
double field_value(const CausalEvent& event, EventField field);

/// The Chrome arg `name` of `event` as its kind declares it ("processor"
/// for every kind); NaN when the kind declares no such arg.
double event_arg(const CausalEvent& event, std::string_view name);

/// How much causal history to keep. kAuto resolves via HMPI_PROF.
enum class ProfMode { kAuto, kOff, kRing, kFull };

/// Resolves kAuto against HMPI_PROF, in any case: unset or empty -> kRing
/// (the always-on default); "0"/"off"/"false"/"no" -> kOff;
/// "1"/"on"/"true"/"yes"/"full" -> kFull; "ring" -> kRing. Any other value
/// throws InvalidArgument naming the variable and the accepted spellings.
/// Explicit (non-kAuto) modes pass through untouched.
ProfMode resolve_prof_mode(ProfMode requested);

/// The per-rank-sharded causal log. Each rank records only its own events.
class CausalLog {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 256;

  /// One shard per entry of `placement`: rank r runs on machine
  /// placement[r]. `traced` makes the log kFull and keeps the traced-only
  /// kinds.
  CausalLog(std::vector<int> placement, ProfMode mode,
            std::size_t ring_capacity = kDefaultRingCapacity,
            bool traced = false);

  bool enabled() const noexcept { return mode_ != ProfMode::kOff; }
  ProfMode mode() const noexcept { return mode_; }
  int ranks() const noexcept { return static_cast<int>(shards_.size()); }

  /// Machine of `rank`, or -1 outside the log: the other end of a message.
  int proc_of(int rank) const noexcept {
    return rank >= 0 && rank < ranks()
               ? placement_[static_cast<std::size_t>(rank)]
               : -1;
  }

  /// Appends to rank `rank`'s shard (ring: overwrites the oldest event once
  /// full). No-op when the log is off, the rank is out of range, or the kind
  /// is traced-only and the log is not traced.
  void record(int rank, const CausalEvent& event);

  /// Rank `rank`'s events in recording order (ring: oldest surviving first).
  std::vector<CausalEvent> events_of(int rank) const;

  /// Events overwritten by the ring on rank `rank` (0 in full mode).
  std::uint64_t dropped_of(int rank) const;

  /// Total events currently retained across all ranks.
  std::size_t size() const;

 private:
  struct Shard {
    // Appender vs snapshot; a tracer's host log may also have several
    // appenders (schedulers on different threads).
    mutable std::mutex mutex;
    std::vector<CausalEvent> events;
    std::size_t head = 0;  // ring: index of the oldest event
    std::uint64_t dropped = 0;
  };

  ProfMode mode_;
  bool traced_;
  std::size_t ring_capacity_;
  std::vector<int> placement_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace hmpi::telemetry
