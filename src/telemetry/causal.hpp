// Causal event log: the compact happens-before record behind critical-path
// analysis (docs/observability.md).
//
// The simulator records one CausalEvent per virtual-clock advance — compute
// and elapse intervals, send and receive endpoints (with the per-(sender,
// destination) sequence number that pairs them), and instant markers for
// crashes and adaptation decisions. Events carry the machine identity on
// both ends of a message plus the innermost active collective (op, algo), so
// a path walk can attribute every second of the makespan to a machine, a
// link, or a collective algorithm.
//
// Storage is sharded per world rank: each simulated process appends only to
// its own shard (the same single-writer discipline as Proc's clock), so
// recording needs no cross-rank coordination; the per-shard mutex exists
// solely so a snapshot taken while other ranks still run (the host exporting
// a report mid-world) is race-free. Three modes:
//
//   kRing — the default, always on: a fixed-capacity ring per rank,
//           overwriting the oldest events. Cheap enough to leave enabled;
//           the path walk reports `complete = false` when it hits the
//           overwritten horizon.
//   kFull — opt-in (`HMPI_PROF=1` / WorldOptions::prof): unbounded append,
//           the whole run reconstructible.
//   kOff  — recording disabled entirely.
//
// This header lives in telemetry (below mpsim in the build graph) so the
// critical-path analyzer can consume the log without linking the simulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace hmpi::telemetry {

/// One recorded causal event. Times are virtual seconds.
struct CausalEvent {
  enum class Kind : std::uint8_t {
    kCompute,  ///< Proc::compute interval.
    kElapse,   ///< Proc::elapse interval (modeled local time).
    kSend,     ///< Send overhead (plus any link-serialization wait).
    kRecv,     ///< Receive: start = clock at entry, end = matched clock.
    kMark,     ///< Instant marker (crash, adaptation decision); not on paths.
  };

  // Flag bits (sends and marks).
  static constexpr std::uint8_t kDropped = 1u << 0;  ///< Message was dropped.
  static constexpr std::uint8_t kDelayed = 1u << 1;  ///< Fault-plan delay.
  static constexpr std::uint8_t kCrash = 1u << 2;    ///< Mark: process death.
  static constexpr std::uint8_t kAdapt = 1u << 3;    ///< Mark: adaptation.

  Kind kind = Kind::kCompute;
  std::uint8_t flags = 0;
  /// Innermost active collective when the event fired; -1 = none. The values
  /// are coll::CollOp / per-op algorithm integers — telemetry stores them
  /// opaquely and the report writer resolves names.
  std::int16_t coll_op = -1;
  std::int16_t coll_algo = 0;
  std::int32_t rank = -1;       ///< World rank (matches the shard index).
  std::int32_t proc = -1;       ///< Machine hosting `rank`.
  std::int32_t peer = -1;       ///< Send: dst rank. Recv: src rank.
  std::int32_t peer_proc = -1;  ///< Machine on the other end.
  std::uint64_t seq = 0;        ///< Per-(sender, dst) sequence; pairs send/recv.
  std::uint64_t bytes = 0;      ///< Logical message bytes.
  double t0 = 0.0;              ///< Virtual start (clock before the advance).
  double t1 = 0.0;              ///< Virtual end (clock after the advance).
  double arrival = 0.0;         ///< Message arrival time (send and recv).
};

/// How much causal history to keep. kAuto resolves via HMPI_PROF.
enum class ProfMode { kAuto, kOff, kRing, kFull };

/// Resolves kAuto against HMPI_PROF, in any case: unset or empty -> kRing
/// (the always-on default); "0"/"off"/"false"/"no" -> kOff;
/// "1"/"on"/"true"/"yes"/"full" -> kFull; "ring" -> kRing. Any other value
/// throws InvalidArgument naming the variable and the accepted spellings.
/// Explicit (non-kAuto) modes pass through untouched.
ProfMode resolve_prof_mode(ProfMode requested);

/// The per-rank-sharded causal log. Construct with the world size; each rank
/// records only its own events.
class CausalLog {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 256;

  CausalLog(int ranks, ProfMode mode,
            std::size_t ring_capacity = kDefaultRingCapacity);

  bool enabled() const noexcept { return mode_ != ProfMode::kOff; }
  ProfMode mode() const noexcept { return mode_; }
  int ranks() const noexcept { return static_cast<int>(shards_.size()); }

  /// Appends to rank `rank`'s shard (ring: overwrites the oldest event once
  /// full). No-op when the log is off or the rank is out of range.
  void record(int rank, const CausalEvent& event);

  /// Rank `rank`'s events in recording order (ring: oldest surviving first).
  std::vector<CausalEvent> events_of(int rank) const;

  /// Events overwritten by the ring on rank `rank` (0 in full mode).
  std::uint64_t dropped_of(int rank) const;

  /// Total events currently retained across all ranks.
  std::size_t size() const;

 private:
  struct Shard {
    mutable std::mutex mutex;  // appender vs snapshot, never appender/appender
    std::vector<CausalEvent> events;
    std::size_t head = 0;  // ring: index of the oldest event
    std::uint64_t dropped = 0;
  };

  ProfMode mode_;
  std::size_t ring_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace hmpi::telemetry
