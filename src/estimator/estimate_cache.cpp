#include "estimator/estimate_cache.hpp"

#include "estimator/fingerprint.hpp"

namespace hmpi::est {

std::size_t EstimateCache::KeyHash::operator()(const Key& k) const noexcept {
  std::uint64_t h = fp_mix(k.fingerprint, k.version);
  for (int p : k.mapping) h = fp_mix(h, static_cast<std::uint64_t>(p));
  return static_cast<std::size_t>(h);
}

EstimateCache::Shard& EstimateCache::shard_for(const Key& key) {
  return shards_[KeyHash{}(key) % kShards];
}

double EstimateCache::estimate(std::uint64_t fingerprint, const Plan& plan,
                               std::span<const int> mapping,
                               const hnoc::NetworkModel& network,
                               EstimateOptions options, bool* hit) {
  double seconds = 0.0;
  const bool found = lookup(fingerprint, mapping, network, &seconds);
  if (hit != nullptr) *hit = found;
  if (found) return seconds;
  // Priced outside the shard lock: a parallel search must not serialise on
  // the table. A concurrent miss of the same key recomputes the same
  // deterministic value.
  seconds = plan.evaluate(mapping, network, options);
  insert(fingerprint, mapping, network, seconds);
  return seconds;
}

bool EstimateCache::lookup(std::uint64_t fingerprint,
                           std::span<const int> mapping,
                           const hnoc::NetworkModel& network, double* out) {
  static thread_local Key key;
  key.fingerprint = fingerprint;
  key.version = network.version();
  key.mapping.assign(mapping.begin(), mapping.end());

  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.table.find(key);
  if (it == shard.table.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  *out = it->second;
  return true;
}

void EstimateCache::insert(std::uint64_t fingerprint,
                           std::span<const int> mapping,
                           const hnoc::NetworkModel& network, double seconds) {
  static thread_local Key key;
  key.fingerprint = fingerprint;
  key.version = network.version();
  key.mapping.assign(mapping.begin(), mapping.end());

  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.table.emplace(key, seconds);
}

void EstimateCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.table.clear();
  }
}

std::size_t EstimateCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.table.size();
  }
  return total;
}

}  // namespace hmpi::est
