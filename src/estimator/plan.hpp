// The estimator: compiled cost IR and the one kernel that prices it
// (docs/estimator.md).
//
// HMPI_Timeof and HMPI_Group_create both rest on one function: the predicted
// execution time of a model instance under a mapping of its abstract
// processors onto physical processors, given the runtime's NetworkModel
// (estimated speeds + link parameters). The cost formulas are the mpsim
// execution engine's own:
//   computation  : (percent/100) * volume / speed(processor)
//   communication: start at max(sender time, link busy);
//                  finish = start + latency + bytes/bandwidth;
//                  receiver time = max(receiver time, finish)
//   par blocks   : children start from the block-entry timeline; the block
//                  result is the element-wise max over children.
// Instances without a scheme fall back to a conservative per-processor
// bound: max over processors of (computation + all incident communication).
//
// A scheme's activation stream cannot depend on the mapping: ScheduleSink
// has no feedback channel, and native scheme functions see only model
// parameters. So the stream is recorded ONCE and re-priced per mapping:
//
//   Plan           — the model instance lowered to a flat, topologically
//                    ordered op list (compute/transfer/par markers) with the
//                    volume and byte factors pre-resolved per op, empty par
//                    segments and blocks dropped, a block that is a whole
//                    segment of its parent flattened into it, a one-op
//                    segment folded straight into its frame, and each par
//                    marker carrying its footprint (the rows its block or
//                    segment writes); plus the (src, dst, bytes) link terms
//                    of the no-scheme fallback.
//   BatchEvaluator — the kernel: structure-of-arrays pricing of a set of
//                    mappings in one pass. The op list is walked once, each
//                    op's inner loop runs contiguously over all candidates
//                    (slot-major speed/time/busy arrays, no per-candidate
//                    allocation). Busy state is kept per *abstract* transfer
//                    pair — O(Q) slots instead of a P x P table — with
//                    per-candidate aliasing of pairs that land on the same
//                    physical link, so P=1000 costs the same per candidate
//                    as P=9. Par frames snapshot, fold, rewind and adopt
//                    only their marker's footprint rows. A single
//                    evaluation (Plan::evaluate) is a count-1 call.
//   PlanCache      — compile-once memo keyed like EstimateCache (instance
//                    fingerprint); plans are mapping- and network-independent,
//                    so recon never invalidates them.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "hnoc/network_model.hpp"
#include "pmdl/model.hpp"

namespace hmpi::est {

/// Per-message overheads; defaults match mp::WorldOptions.
struct EstimateOptions {
  double send_overhead_s = 5e-6;
  double recv_overhead_s = 5e-6;
};

/// One lowered scheme activation or par marker. `value` is pre-multiplied
/// by the activation's percentage: computation units for kCompute and
/// kParCompute, bytes for kTransfer and kParTransfer (self transfers cost
/// nothing in the model and are dropped at compile time). kParCompute and
/// kParTransfer are par segments of that one op: they price it from the
/// live rows, which hold the block's entry values, and fold the result into
/// the innermost frame's running max, leaving the live rows as they are. A
/// par marker's footprint (Plan::time_rows, Plan::pair_rows) is stored as
/// `b` time rows followed by `pair` transfer-pair rows from offset `a` of
/// the plan's row array; kParBegin and kParEnd carry their block's
/// footprint, kParIterBegin the footprint of the segment it closes.
struct PlanOp {
  enum class Kind : std::uint8_t {
    kCompute,       ///< time[a] += value / speed(mapping[a])
    kTransfer,      ///< timeline transfer of `value` bytes a -> b
    kParCompute,    ///< kCompute as a whole segment, into the frame's max
    kParTransfer,   ///< kTransfer as a whole segment, into the frame's max
    kParBegin,      ///< snapshot the block's rows (par block entry)
    kParIterBegin,  ///< fold the segment's rows into the max, rewind them
    kParEnd,        ///< fold and adopt the element-wise max of the block's rows
  };
  Kind kind = Kind::kCompute;
  int a = -1;     ///< Abstract processor (compute) / source (transfer) /
                  ///< first footprint row (markers).
  int b = -1;     ///< Transfer destination / time rows (markers).
  int pair = -1;  ///< Transfer pair index (transfer_pairs()) / pair rows
                  ///< (markers).
  double value = 0;  ///< Units (compute) or bytes (transfer), percent applied.
};

/// One directed link term of the no-scheme fallback cost.
struct PlanLink {
  int src = -1;
  int dst = -1;
  double bytes = 0.0;
};

/// A model instance lowered to the flat cost IR (see file comment).
/// Immutable after construction; safe to share across search threads.
class Plan {
 public:
  /// Lowers `instance`: replays the scheme once into the op list (or, for
  /// scheme-less instances, materialises the fallback link terms). The
  /// instance itself is not retained.
  explicit Plan(const pmdl::ModelInstance& instance);

  /// Abstract processors of the instance.
  int size() const noexcept { return num_procs_; }

  /// Whether the IR came from a scheme (vs the fallback aggregate bound).
  bool from_scheme() const noexcept { return from_scheme_; }

  /// Cost of one evaluation, in IR operations after lowering (the
  /// kEstCompile trace payload).
  std::size_t op_count() const noexcept {
    return from_scheme_ ? ops_.size() : volumes_.size() + 2 * links_.size();
  }

  std::span<const PlanOp> ops() const noexcept { return ops_; }

  /// The footprint of par marker `op`: the abstract processors whose time
  /// rows, and the transfer pairs whose busy rows, its block (kParBegin,
  /// kParEnd) or closing segment (kParIterBegin) writes. Each is sorted.
  std::span<const int> time_rows(const PlanOp& op) const noexcept {
    return {footprint_rows_.data() + op.a, static_cast<std::size_t>(op.b)};
  }
  std::span<const int> pair_rows(const PlanOp& op) const noexcept {
    return {footprint_rows_.data() + op.a + op.b,
            static_cast<std::size_t>(op.pair)};
  }

  /// Predicted execution time of the plan under `mapping` (`mapping[a]` is
  /// the physical processor of abstract processor `a`): a count-1
  /// evaluate_batch. Throws InvalidArgument when the mapping has the wrong
  /// size or names a processor outside the network.
  double evaluate(std::span<const int> mapping,
                  const hnoc::NetworkModel& network,
                  EstimateOptions options = EstimateOptions()) const;

  /// Prices `count` candidate mappings in one structure-of-arrays pass.
  /// `procs_soa` is slot-major: procs_soa[a * count + i] is the physical
  /// processor of abstract slot `a` in candidate `i`. out[i] does not depend
  /// on `count` or on the other candidates (see BatchEvaluator). Reuses a
  /// thread-local BatchEvaluator; callers in a hot loop should own one
  /// directly.
  void evaluate_batch(std::span<const int> procs_soa, std::size_t count,
                      const hnoc::NetworkModel& network,
                      EstimateOptions options, std::span<double> out) const;

  /// Distinct abstract (src, dst) transfer pairs, in first-appearance order.
  /// The batch evaluator keys its compact busy slots by these.
  std::span<const std::pair<int, int>> transfer_pairs() const noexcept {
    return pairs_;
  }

 private:
  friend class BatchEvaluator;

  int num_procs_ = 0;
  bool from_scheme_ = false;

  // Scheme IR.
  std::vector<PlanOp> ops_;
  std::vector<std::pair<int, int>> pairs_;  // distinct abstract transfer pairs
  std::vector<int> footprint_rows_;         // par marker footprints

  // Fallback IR.
  std::vector<double> volumes_;  // per abstract processor
  std::vector<PlanLink> links_;  // link_bytes map order (sorted)
};

/// Structure-of-arrays pricing of a candidate set (see file comment) — the
/// only code that prices a mapping. Holds all scratch across calls, so a
/// search loop pays zero allocation once the high-water batch size is
/// reached. Not thread-safe; each search thread owns its own evaluator.
///
/// Exactness: per candidate, the op walk performs the float operations of
/// the cost model in scheme order — compute divides by the candidate's
/// speed, a transfer's busy slot is shared between two ops iff they land on
/// the same physical (src, dst) pair (per-candidate canonical-pair
/// aliasing), and a par frame that folds and rewinds only its footprint
/// rows agrees with one over the whole timeline and every physical link: a
/// row the block does not write equals its snapshot and the running max
/// throughout, and busy rows are reached through the candidate's canonical
/// slot, so aliased pairs share one frame entry. Flattened blocks and
/// one-op segments fold the same values into the same running maxima in
/// another grouping, which changes no result while no priced time is NaN,
/// and the inputs are checked to keep every time a number
/// (docs/estimator.md §4). So
/// a candidate's value is the same whatever batch it is priced in, and
/// equal bit for bit to the scheme interpreter the test suites keep as the
/// reference (tests/estimator/batch_test.cpp).
class BatchEvaluator {
 public:
  BatchEvaluator() = default;

  /// Prices `count` candidates of `plan` laid out slot-major
  /// (procs_soa[a * count + i], see Plan::evaluate_batch) into out[0..count).
  void evaluate(const Plan& plan, std::span<const int> procs_soa,
                std::size_t count, const hnoc::NetworkModel& network,
                EstimateOptions options, std::span<double> out);

 private:
  /// Per-candidate canonical busy slot of every abstract pair: two pairs
  /// alias iff they map to the same physical (src, dst) under the candidate,
  /// which needs the alias hash only when two of its slots share a
  /// processor. Also gathers each pair's link parameters.
  void compute_canonical_pairs(const Plan& plan,
                               std::span<const int> procs_soa,
                               std::size_t count,
                               const hnoc::NetworkModel& network);

  // Slot-major scratch, all sized (rows x count).
  std::vector<double> speed_;      // per abstract slot: speed of its processor
  std::vector<double> time_;       // per abstract slot
  std::vector<double> busy_;       // per abstract transfer pair (canonical)
  std::vector<int> canon_;         // per pair: canonical pair index
  std::vector<double> latency_;    // per pair: physical link latency
  std::vector<double> bandwidth_;  // per pair: physical link bandwidth
  std::vector<double> cost_;       // fallback plans: per abstract slot

  // Par-block frames (snapshot + running max), pooled across calls. Laid
  // out like time_ and busy_; only the block's footprint rows are live.
  struct Frame {
    std::vector<double> snap_time, snap_busy;
    std::vector<double> acc_time, acc_busy;
  };
  std::vector<Frame> frames_;
  std::size_t frame_depth_ = 0;

  // Scratch of compute_canonical_pairs, generation-stamped per candidate so
  // it never needs clearing between candidates: the open-addressing alias
  // table, and the processors the candidate's slots occupy.
  std::vector<std::uint64_t> probe_key_;
  std::vector<std::uint32_t> probe_gen_;
  std::vector<int> probe_pair_;
  std::vector<std::uint32_t> proc_gen_;
  std::uint32_t generation_ = 0;
};

/// Compile-once memo: instance fingerprint -> shared immutable Plan.
/// Thread-safe; shared by every process's searches like the EstimateCache.
/// Plans depend only on the instance (not on mapping, speeds, or overheads),
/// so entries never go stale — recon does not invalidate them.
class PlanCache {
 public:
  PlanCache() = default;
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The plan for `instance`, compiling it on first sight. Sets *compiled
  /// (when non-null) to whether this call did the compile, and
  /// *compile_seconds to how long it took (0 on a hit).
  std::shared_ptr<const Plan> get(const pmdl::ModelInstance& instance,
                                  bool* compiled = nullptr,
                                  double* compile_seconds = nullptr);

  std::size_t size() const;
  void clear();

  /// Cumulative lookup counters (hits + misses = lookups; a miss compiled).
  long long hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  long long misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const Plan>> table_;
  std::atomic<long long> hits_{0};
  std::atomic<long long> misses_{0};
};

}  // namespace hmpi::est
