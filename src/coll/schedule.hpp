// Collective schedules: each algorithm is a deterministic, round-structured
// message plan generated once and consumed twice —
//   * executed over mp::Comm point-to-point sends (coll/algorithms.hpp), and
//   * replayed over hnoc::NetworkModel link parameters to predict its
//     virtual duration (coll/cost.hpp) with the simulator's exact formulas.
// Keeping one generator per algorithm guarantees the cost model prices the
// byte-for-byte schedule the executor runs.
//
// For execution, a call's flat step list is wrapped in a Schedule: built
// once per collective call and shared by all of its members (the World
// caches it under its ScheduleKey), with a per-member index so each member
// walks only the steps it sends or receives. Memory is O(steps) per call,
// not O(members x steps).
//
// Offsets and counts are in *elements* of the operation's logical vector:
// the data buffer for bcast, the accumulator for reduce/allreduce, the
// n-block receive buffer for allgather/reduce_scatter. Rounds express the
// data dependences: a member never sends a range before the round that
// delivered it, and within a round every member performs all of its sends
// before any of its receives (so exchange rounds send pre-round values).
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "coll/policy.hpp"

namespace hmpi::hnoc {
class Cluster;
}

namespace hmpi::coll {

/// One message of a collective schedule.
struct Step {
  enum class Action {
    kCopy,     ///< Receiver overwrites vector[offset, offset+count).
    kCombine,  ///< Receiver folds in: v[i] = op(v[i], incoming[i]).
    kToken,    ///< One-byte synchronisation message; offset/count unused.
  };
  int round = 0;  ///< Rounds execute in non-decreasing order.
  int src = 0;    ///< Sending member (communicator rank).
  int dst = 0;    ///< Receiving member.
  std::size_t offset = 0;
  std::size_t count = 0;
  Action action = Action::kCopy;

  /// Tag offset above the operation's tag base. Rounds wrap modulo the tag
  /// block width; FIFO per (sender, context) ordering keeps wrapped rounds
  /// matching correctly.
  int tag() const noexcept { return round & 0xff; }
};

/// Segment size used by the chain-pipelined bcast when the caller does not
/// specify one, in elements (the dispatchers divide by sizeof(T)).
inline constexpr std::size_t kChainSegmentBytes = 64 * 1024;

/// Broadcast of `count` elements from `root` over `n` members.
/// `member_procs` (machine id per member, possibly empty) is only used by
/// kTwoLevel; without placement it degenerates to the binomial tree.
std::vector<Step> bcast_schedule(BcastAlgo algo, int n, int root,
                                 std::size_t count,
                                 std::span<const int> member_procs = {},
                                 std::size_t segment_elems = kChainSegmentBytes);

/// Reduction of `count` elements to `root`.
std::vector<Step> reduce_schedule(ReduceAlgo algo, int n, int root,
                                  std::size_t count);

/// Allreduce of `count` elements.
std::vector<Step> allreduce_schedule(AllreduceAlgo algo, int n,
                                     std::size_t count);

/// Reduce-scatter over a logical vector of n blocks of `block` elements;
/// member r ends up owning block r (at offset r*block).
std::vector<Step> reduce_scatter_schedule(ReduceScatterAlgo algo, int n,
                                          std::size_t block);

/// Allgather into a logical vector of n blocks of `block` elements; every
/// member starts with its own block in place.
std::vector<Step> allgather_schedule(AllgatherAlgo algo, int n,
                                     std::size_t block);

/// Barrier (token messages only).
std::vector<Step> barrier_schedule(BarrierAlgo algo, int n);

/// Generic entry point: `algo` is the per-op enum value (never 0/kAuto).
/// `count` follows the per-op convention above (total elements for
/// bcast/reduce/allreduce, per-member block for reduce_scatter/allgather,
/// ignored for barrier).
std::vector<Step> schedule_for(CollOp op, int algo, int n, int root,
                               std::size_t count,
                               std::span<const int> member_procs = {},
                               std::size_t segment_elems = kChainSegmentBytes);

/// Everything schedule_for reads, as one comparable value: two calls with
/// equal keys run the identical schedule, so they can share one Schedule.
struct ScheduleKey {
  CollOp op = CollOp::kBarrier;
  int algo = 0;
  int n = 0;
  int root = 0;
  std::size_t count = 0;
  std::size_t segment_elems = kChainSegmentBytes;
  std::vector<int> groups;  ///< Placement groups; kTwoLevel bcast only.

  friend auto operator<=>(const ScheduleKey&, const ScheduleKey&) = default;
};

/// A round-grouped step list plus a CSR index of it by member: member m's
/// view lists, in schedule order, the steps it sends or receives, so every
/// step appears in exactly two views (schedules never message themselves).
/// Immutable once built, hence safe to share across the simulated processes
/// of one call.
class Schedule {
 public:
  /// Generates schedule_for(key...) and indexes it by member.
  explicit Schedule(const ScheduleKey& key);

  int members() const noexcept { return static_cast<int>(offsets_.size()) - 1; }

  /// The flat schedule, in round order.
  std::span<const Step> steps() const noexcept { return steps_; }

  /// Indices into steps() of the steps naming `member` as src or dst, in
  /// schedule order.
  std::span<const std::uint32_t> member_steps(int member) const;

 private:
  std::vector<Step> steps_;
  std::vector<std::size_t> offsets_;  ///< members()+1 offsets into index_.
  std::vector<std::uint32_t> index_;
};

/// Grouping key per member for hierarchy-aware schedules (the kTwoLevel
/// bcast): each member's LAN id when the cluster carries a two-level
/// topology, else its machine id unchanged. On flat clusters the result is
/// byte-identical to `member_procs`, so schedules are unaffected; on
/// two-level clusters one leader is elected per LAN instead of per machine,
/// crossing the slow inter-LAN link once per LAN.
std::vector<int> two_level_groups(const hnoc::Cluster& cluster,
                                  std::span<const int> member_procs);

}  // namespace hmpi::coll
