// CollTuner: cost-model-driven collective algorithm selection.
//
// For each (operation, roster, message-size bucket) the tuner prices every
// candidate algorithm with coll::collective_cost over its own immutable
// snapshot of the cluster's link parameters and picks the predicted-fastest,
// memoizing the answer. The cost reads only link latency and bandwidth, so a
// Recon (which changes processor speeds) cannot change a selection and
// leaves the memo valid.
//
// Determinism contract: with feedback off (the default), select() is a pure
// function of (op, roster machines, size bucket, policy) — every member of a
// communicator computes the same choice independently, regardless of thread
// count or cache hits. The optional measured-feedback mode folds
// observed/predicted ratios into the ranking; observations are staged into
// a pending table and only applied by promote_feedback(), which the runtime
// calls at a world-collective quiescent point (Recon), so members of an
// in-flight collective can never disagree on the ranking.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "coll/cost.hpp"
#include "coll/policy.hpp"
#include "hnoc/cluster.hpp"
#include "hnoc/network_model.hpp"

namespace hmpi::coll {

class CollTuner : public Selector {
 public:
  struct Options {
    CostOptions cost;
    /// When false, select() skips the cost search and returns the policy /
    /// legacy default — the subsystem's "off switch" that still funnels
    /// every collective through one resolution point.
    bool predict = true;
    /// Enables measured-feedback re-ranking (see file comment).
    bool feedback = false;
    /// EWMA weight of a new observation in feedback mode.
    double feedback_alpha = 0.25;
  };

  CollTuner(const hnoc::Cluster& topology, Options options);

  /// Policy overrides consulted before the cost search (a concrete per-op
  /// choice bypasses prediction). Safe to call between collectives; calling
  /// it while a collective is in flight risks members disagreeing.
  void set_policy(const CollPolicy& policy);
  CollPolicy policy() const;

  // Selector:
  int select(CollOp op, std::span<const int> member_procs, std::size_t bytes,
             double* predicted_s) override;
  void observe(CollOp op, int algo, std::size_t bytes, double measured_s,
               double predicted_s) override;

  /// Applies staged feedback observations to the active ranking. Call only
  /// at points where no collective is in flight (the runtime does this in
  /// Recon). No-op when feedback is disabled or nothing was observed.
  void promote_feedback();

  /// Cache statistics (for diagnostics and tests).
  std::uint64_t cache_hits() const;
  std::uint64_t cache_misses() const;

  /// Active (promoted) measured/predicted EWMA ratio for one (op, algo), or
  /// <= 0 when no observation has been promoted. Exported by the runtime as
  /// `coll.feedback.<op>.<algo>` gauges (docs/observability.md).
  double feedback_ratio(CollOp op, int algo) const;

 private:
  struct Key {
    std::uint8_t op;
    std::uint32_t bucket;
    std::uint64_t roster_hash;
    std::uint64_t feedback_gen;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };
  struct Selection {
    int algo = 0;
    double predicted_s = -1.0;
  };

  Selection pick(CollOp op, std::span<const int> member_procs,
                 std::size_t rep_bytes, std::uint64_t feedback_gen) const;

  const hnoc::NetworkModel model_;  // immutable topology snapshot
  const Options options_;

  mutable std::mutex mutex_;
  CollPolicy policy_;
  std::unordered_map<Key, Selection, KeyHash> memo_;
  // ratio_[op][algo]: EWMA of measured/predicted; <= 0 means no data.
  double active_ratio_[kNumCollOps][8] = {};
  double pending_ratio_[kNumCollOps][8] = {};
  bool pending_dirty_ = false;
  std::uint64_t feedback_gen_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace hmpi::coll
