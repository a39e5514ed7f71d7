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
// Thread safety: the table is sharded by key hash, each shard behind its own
// mutex, so the parallel mappers can share one cache. The shard count is a
// constructor argument: the batch searches probe thousands of keys per
// round, and bulk probes grouped by shard take each shard mutex once per
// batch instead of once per key. Two threads that miss the same key
// concurrently both compute it; the kernel is deterministic, so whichever
// insert lands is the same bit pattern — cached and uncached searches return
// bit-identical results.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "estimator/plan.hpp"
#include "hnoc/network_model.hpp"

namespace hmpi::est {

class EstimateCache {
 public:
  static constexpr std::size_t kDefaultShards = 16;

  /// `shards` is clamped to >= 1. More shards cut contention under parallel
  /// and batch probes; the default matches the pre-configurable behaviour.
  explicit EstimateCache(std::size_t shards = kDefaultShards);
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

  /// Bulk probe of `count` mappings laid out row-major (mapping i occupies
  /// [i * width, (i + 1) * width) of `mappings`). Sets found[i] to 1 and
  /// fills out[i] on a hit; returns the number of hits. Keys are bucketed by
  /// shard and each shard mutex is taken once per batch — this is what keeps
  /// the batch searches off the per-key locking profile. Counts toward
  /// hits()/misses() exactly like `count` individual lookup() calls.
  std::size_t lookup_batch(std::uint64_t fingerprint,
                           std::span<const int> mappings, std::size_t width,
                           const hnoc::NetworkModel& network,
                           std::span<double> out, std::span<char> found);

  /// Bulk insert of caller-computed values for the subset with skip[i] == 0
  /// (pass the found mask of the paired lookup_batch). Groups keys by shard,
  /// locking each shard once.
  void insert_batch(std::uint64_t fingerprint, std::span<const int> mappings,
                    std::size_t width, const hnoc::NetworkModel& network,
                    std::span<const double> values, std::span<const char> skip);

  /// Shards the table was built with.
  std::size_t shard_count() const noexcept { return shard_count_; }

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

  Shard& shard_for(const Key& key);

  /// Row hash shared by the single and batch paths (same value KeyHash
  /// computes from a materialised Key).
  static std::uint64_t row_hash(std::uint64_t fingerprint,
                                std::uint64_t version,
                                std::span<const int> mapping) noexcept;

  // Heap array, not a vector: Shard holds a mutex (immovable), and the count
  // is fixed at construction anyway.
  std::size_t shard_count_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<long long> hits_{0};
  std::atomic<long long> misses_{0};
};

}  // namespace hmpi::est
