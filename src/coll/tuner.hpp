// CollTuner: cost-model-driven collective algorithm selection.
//
// For each (operation, roster, message-size bucket) the tuner prices every
// candidate algorithm with coll::collective_cost over its own immutable
// snapshot of the cluster's link parameters and picks the predicted-fastest,
// memoizing the answer. The cost reads only link latency and bandwidth, so a
// Recon (which changes processor speeds) cannot change a selection and
// leaves the memo valid.
//
// Determinism contract: select() is a pure function of (op, roster machines,
// size bucket) — every member of a communicator computes the same choice
// independently, regardless of thread count or cache hits. The tuner holds
// no policy: pins are resolved before it is asked (mp::World::coll_choice).
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
  };

  CollTuner(const hnoc::Cluster& topology, Options options);

  // Selector:
  int select(CollOp op, std::span<const int> member_procs, std::size_t bytes,
             double* predicted_s) override;

  /// Cache statistics (for diagnostics and tests).
  std::uint64_t cache_hits() const;
  std::uint64_t cache_misses() const;

 private:
  struct Key {
    std::uint8_t op;
    std::uint32_t bucket;
    std::uint64_t roster_hash;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };

  Choice pick(CollOp op, std::span<const int> member_procs,
              std::size_t rep_bytes) const;

  const hnoc::NetworkModel model_;  // immutable topology snapshot
  const Options options_;

  mutable std::mutex mutex_;
  std::unordered_map<Key, Choice, KeyHash> memo_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace hmpi::coll
