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
// Storage is one log per world: every event is appended, in recording
// order, into fixed-size chunks, and each entry remembers the rank it was
// filed under (the `rank` argument of record(), not `event.rank`), so a
// world of thousands of ranks pays for the events it records and not for a
// buffer per rank. Readers that want every rank's events take them in one
// pass (events_by_rank()). One mutex guards the log: a world's ranks run as
// fibers on one host thread, but a tracer's host log has several recording
// threads (schedulers) and a reader (Tracer::events()) that may race them.
// Three modes:
//
//   kRing — the default, always on: the log keeps the newest events of each
//           rank, ring_capacity of them. It compacts in place (stably,
//           dropping each rank's older events) once it holds twice that
//           bound over all ranks. The path walk reports `complete = false`
//           when it hits a rank's dropped horizon.
//   kFull — opt-in (`HMPI_PROF=1` / WorldOptions::prof): the same log
//           without the bound, the whole run reconstructible.
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

/// The causal log of one world: every rank's events in recording order.
class CausalLog {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 256;

  /// One rank per entry of `placement`: rank r runs on machine
  /// placement[r]. `traced` makes the log kFull and keeps the traced-only
  /// kinds.
  CausalLog(std::vector<int> placement, ProfMode mode,
            std::size_t ring_capacity = kDefaultRingCapacity,
            bool traced = false);

  bool enabled() const noexcept { return mode_ != ProfMode::kOff; }
  ProfMode mode() const noexcept { return mode_; }
  int ranks() const noexcept { return static_cast<int>(placement_.size()); }

  /// Machine of `rank`, or -1 outside the log: the other end of a message.
  int proc_of(int rank) const noexcept {
    return rank >= 0 && rank < ranks()
               ? placement_[static_cast<std::size_t>(rank)]
               : -1;
  }

  /// Appends `event` filed under rank `rank` (ring: a rank keeps only its
  /// newest ring_capacity events). No-op when the log is off, the rank is
  /// out of range, or the kind is traced-only and the log is not traced.
  void record(int rank, const CausalEvent& event);

  /// Rank `rank`'s events in recording order (ring: oldest kept first).
  /// Scans the whole log; a reader of every rank takes events_by_rank().
  std::vector<CausalEvent> events_of(int rank) const;

  /// Every rank's events in one pass: element r equals events_of(r).
  std::vector<std::vector<CausalEvent>> events_by_rank() const;

  /// Events the ring dropped on rank `rank` (0 in full mode).
  std::uint64_t dropped_of(int rank) const;

  /// Total events currently kept across all ranks.
  std::size_t size() const;

 private:
  static constexpr std::size_t kChunkEvents = 512;

  /// A fixed-size piece of the log: both vectors are reserved to
  /// kChunkEvents once and never regrow, so appending copies no event.
  struct Chunk {
    std::vector<CausalEvent> events;
    std::vector<std::int32_t> ranks;  ///< The rank each entry is filed under.
  };

  struct RankCount {
    std::uint64_t held = 0;     ///< Entries of the rank in the log.
    std::uint64_t dropped = 0;  ///< Entries compaction removed.
  };

  /// Entries of `count`'s rank that the ring keeps (all in full mode).
  std::uint64_t kept(const RankCount& count) const noexcept;

  /// Calls visit(rank, event) for every kept entry, in log order.
  template <typename Visit>
  void for_each_kept(Visit&& visit) const;

  /// Ring: drops every rank's entries beyond its newest ring_capacity_,
  /// keeping the order of the rest.
  void compact();

  ProfMode mode_;
  bool traced_;
  std::size_t ring_capacity_;
  std::vector<int> placement_;
  // Guards the three members below; behind a pointer so the log stays
  // movable.
  std::unique_ptr<std::mutex> mutex_ = std::make_unique<std::mutex>();
  std::vector<RankCount> counts_;  ///< One per rank.
  std::vector<Chunk> chunks_;
  std::size_t entries_ = 0;  ///< Entries in the log, also those past a
                             ///< rank's bound that no compaction dropped yet.
};

}  // namespace hmpi::telemetry
