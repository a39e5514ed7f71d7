// Collective-algorithm policy: which algorithm runs each collective.
//
// Every collective operation of mp::Comm (bcast, reduce, allreduce,
// reduce_scatter, allgather, barrier) has a family of interchangeable
// algorithms (docs/collectives.md). Selection is resolved per call, in
// priority order:
//   1. the communicator's own CollPolicy override (Comm::set_coll_policy),
//   2. the world's one CollPolicy (mp::World::coll_policy: WorldOptions::coll
//      sets it, the runtime fills its kAuto ops at Init and
//      Runtime::coll_set_policy rewrites it),
//   3. the installed Selector's cost argmin (the runtime's CollTuner),
//   4. the built-in legacy default (the algorithm the library hard-coded
//      before this subsystem existed), so worlds without a runtime behave
//      byte-identically to older versions.
// mp::World::coll_choice applies steps 2-4; Comm::coll_select puts step 1
// in front of it.
//
// This header is dependency-free on purpose: mpsim includes it from
// WorldOptions/Comm, while the cost model and tuner live above in
// libhmpi_coll.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>

namespace hmpi::coll {

/// The collective operations with pluggable algorithms.
enum class CollOp {
  kBcast,
  kReduce,
  kAllreduce,
  kReduceScatter,
  kAllgather,
  kBarrier,
};
inline constexpr int kNumCollOps = 6;

/// Broadcast algorithms.
enum class BcastAlgo {
  kAuto,      ///< Defer to the world policy / selector / default.
  kFlat,      ///< Root sends directly to every member.
  kBinomial,  ///< Binomial tree (the legacy default).
  kChain,     ///< Pipelined chain: the message is segmented and streamed
              ///< along a ring path rooted at the root.
  kTwoLevel,  ///< Cluster-aware: binomial over one leader per machine, then
              ///< a flat intra-machine fan-out over the cheap self link.
};

/// Reduction algorithms. Non-default algorithms require the operator to be
/// commutative as well as associative (docs/collectives.md).
enum class ReduceAlgo {
  kAuto,
  kFlat,         ///< Every member sends its vector to the root.
  kBinomial,     ///< Binomial tree (the legacy default).
  kRabenseifner, ///< Recursive-halving reduce-scatter + binomial gather.
};

/// Allreduce algorithms.
enum class AllreduceAlgo {
  kAuto,
  kReduceBcast,       ///< Binomial reduce to rank 0 + binomial bcast (legacy).
  kRecursiveDoubling, ///< Pairwise full-vector exchange; non-power-of-two
                      ///< member counts fold the excess ranks in and out.
  kRabenseifner,      ///< Reduce-scatter + recursive-doubling allgather.
};

/// Reduce-scatter algorithms (no legacy default: the operation is new).
enum class ReduceScatterAlgo {
  kAuto,
  kPairwise,          ///< Alltoall-style block exchange, combine at owner.
  kRecursiveHalving,  ///< Halve the vector per round, then place blocks.
};

/// Allgather algorithms.
enum class AllgatherAlgo {
  kAuto,
  kGatherBcast,       ///< Linear gather to rank 0 + binomial bcast (legacy).
  kRing,              ///< n-1 neighbour rounds; bandwidth-optimal pipeline.
  kRecursiveDoubling, ///< Doubling-distance dissemination (Bruck's absolute
                      ///< indexing), ceil(log2 n) rounds for any n.
};

/// Barrier algorithms.
enum class BarrierAlgo {
  kAuto,
  kDissemination,  ///< +/- 2^k token exchanges (legacy default).
  kTournament,     ///< Binomial reduce of a token to rank 0 + binomial bcast.
};

/// Per-operation algorithm choices; kAuto defers down the resolution order
/// (see file comment). Identical on every member of a communicator, or the
/// members disagree on the message pattern and the collective deadlocks.
struct CollPolicy {
  BcastAlgo bcast = BcastAlgo::kAuto;
  ReduceAlgo reduce = ReduceAlgo::kAuto;
  AllreduceAlgo allreduce = AllreduceAlgo::kAuto;
  ReduceScatterAlgo reduce_scatter = ReduceScatterAlgo::kAuto;
  AllgatherAlgo allgather = AllgatherAlgo::kAuto;
  BarrierAlgo barrier = BarrierAlgo::kAuto;

  /// The per-op choice as a generic integer (0 = auto); see algo_count().
  int choice(CollOp op) const noexcept;
  void set_choice(CollOp op, int algo);
};

/// The algorithm the library used before pluggable collectives existed
/// (never kAuto; reduce_scatter had no legacy implementation and defaults
/// to kPairwise).
int legacy_default(CollOp op) noexcept;

/// Number of selectable algorithms of `op`, kAuto excluded. Valid concrete
/// algorithm values are 1..algo_count(op).
int algo_count(CollOp op) noexcept;

/// Stable lower-case operation name ("bcast", "reduce_scatter", ...), used
/// in metric names (`coll.<op>.<algo>`) and env overrides.
const char* op_name(CollOp op);

/// Stable lower-case algorithm name ("binomial", "two_level", ...). `algo`
/// is the per-op enum value; 0 returns "auto".
const char* algo_name(CollOp op, int algo);

/// Inverse of algo_name for `op`; -1 when the name is unknown ("auto" = 0).
int algo_from_name(CollOp op, const std::string& name);

/// True when `op` is an op_name and `algo` is empty or the algo_name of one
/// of its concrete algorithms: the check the `<op>` and `<algo>` segments
/// of a metric name must pass (tools/telemetry_check).
bool names_collective(std::string_view op, std::string_view algo);

/// One resolved collective algorithm.
struct Choice {
  int algo = 0;               ///< Per-op algorithm value (never kAuto).
  double predicted_s = -1.0;  ///< Cost-model prediction; < 0 if not priced.
};

/// Pluggable per-call algorithm selector, installed into a mp::World (the
/// runtime installs its CollTuner) and consulted for each op the world
/// policy leaves at kAuto. select() must be deterministic in its arguments:
/// every member of a communicator calls it independently and the results
/// must agree.
class Selector {
 public:
  virtual ~Selector() = default;

  /// Chooses the algorithm (per-op enum value, never 0/kAuto) for a
  /// collective of `bytes` total payload over members whose machines are
  /// `member_procs` (by communicator rank). Sets *predicted_s (when
  /// non-null) to the predicted virtual duration, or a negative value when
  /// the selector does not predict.
  virtual int select(CollOp op, std::span<const int> member_procs,
                     std::size_t bytes, double* predicted_s) = 0;
};

}  // namespace hmpi::coll
