// Memoisation of the estimator kernel for the group-selection search.
//
// The mappers (mapper/mapper.hpp) score thousands of candidate arrangements
// per selection, and many distinct *selections* collapse to the same
// *physical mapping*: several candidate processes live on the same machine,
// hill-climbing re-scores the neighbours it rejected last round, and the
// paper's canonical HMPI_Timeof-then-HMPI_Group_create pair replays the
// whole search twice. An estimate is a pure function of
//   (model instance, physical mapping, network speeds, overhead options),
// so it can be memoised: this cache keys on a fingerprint of the instance
// and options, the NetworkModel *version counter* (bumped by every
// set_speed, i.e. by every recon — stale speeds can never leak back), and
// the canonical per-abstract-processor physical mapping.
//
// Only the one-at-a-time searches (greedy, swap-refine, annealing,
// exhaustive) consult it; they are where the revisits are. The batch
// searches (beam, work-stealing annealing) price every row through the
// kernel instead: at P=1000 they hit about 1% of the time, and a probe plus
// its insert costs about twice what the kernel charges for the mapping.
//
// Thread safety: the table is split into 16 shards by key hash, each behind
// its own mutex, so the parallel mappers can share one cache. Two
// threads that miss the same key concurrently both compute it; the kernel is
// deterministic, so whichever insert lands is the same bit pattern — cached
// and uncached searches return bit-identical results.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "estimator/plan.hpp"
#include "hnoc/network_model.hpp"

namespace hmpi::est {

class EstimateCache {
 public:
  EstimateCache() = default;
  EstimateCache(const EstimateCache&) = delete;
  EstimateCache& operator=(const EstimateCache&) = delete;

  /// plan.evaluate(mapping, network, options), memoised: lookup(), and on
  /// a miss the kernel and insert(). `fingerprint` is
  /// est::estimate_fingerprint(instance, options) of the instance `plan` was
  /// compiled from, hoisted out by callers that price many mappings of one
  /// instance (it hashes every aggregate, which would otherwise dominate a
  /// table hit). Sets *hit (when non-null) to whether the value came from
  /// the table.
  double estimate(std::uint64_t fingerprint, const Plan& plan,
                  std::span<const int> mapping,
                  const hnoc::NetworkModel& network, EstimateOptions options,
                  bool* hit = nullptr);

  /// Probe without computing: true and *out filled on a hit. Counts toward
  /// hits()/misses() exactly like estimate().
  bool lookup(std::uint64_t fingerprint, std::span<const int> mapping,
              const hnoc::NetworkModel& network, double* out);

  /// Stores a value the caller computed (bit-identical to what estimate()
  /// would have computed, per the kernel's determinism contract).
  void insert(std::uint64_t fingerprint, std::span<const int> mapping,
              const hnoc::NetworkModel& network, double seconds);

  /// Drops every entry (cumulative hit/miss counters are kept). Version
  /// keying already prevents stale reads; clearing just releases memory,
  /// e.g. after a recon made every existing entry unreachable.
  void clear();

  /// Entries currently stored.
  std::size_t size() const;

  /// Cumulative lookup counters (diagnostics; hits + misses = lookups).
  long long hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  long long misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  struct Key {
    std::uint64_t fingerprint = 0;  // instance + options
    std::uint64_t version = 0;      // NetworkModel::version()
    std::vector<int> mapping;       // physical processor per abstract proc
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<Key, double, KeyHash> table;
  };

  static constexpr std::size_t kShards = 16;

  Shard& shard_for(const Key& key);

  // Array, not a vector: Shard holds a mutex (immovable).
  std::array<Shard, kShards> shards_;
  std::atomic<long long> hits_{0};
  std::atomic<long long> misses_{0};
};

}  // namespace hmpi::est
