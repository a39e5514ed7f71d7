#include "estimator/estimate_cache.hpp"

#include <algorithm>

#include "estimator/fingerprint.hpp"

namespace hmpi::est {

std::uint64_t EstimateCache::row_hash(std::uint64_t fingerprint,
                                      std::uint64_t version,
                                      std::span<const int> mapping) noexcept {
  std::uint64_t h = fp_mix(fingerprint, version);
  for (int p : mapping) h = fp_mix(h, static_cast<std::uint64_t>(p));
  return h;
}

std::size_t EstimateCache::KeyHash::operator()(const Key& k) const noexcept {
  return static_cast<std::size_t>(
      row_hash(k.fingerprint, k.version, k.mapping));
}

EstimateCache::EstimateCache(std::size_t shards)
    : shard_count_(std::max<std::size_t>(1, shards)),
      shards_(std::make_unique<Shard[]>(shard_count_)) {}

EstimateCache::Shard& EstimateCache::shard_for(const Key& key) {
  return shards_[KeyHash{}(key) % shard_count_];
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

std::size_t EstimateCache::lookup_batch(std::uint64_t fingerprint,
                                        std::span<const int> mappings,
                                        std::size_t width,
                                        const hnoc::NetworkModel& network,
                                        std::span<double> out,
                                        std::span<char> found) {
  const std::size_t count = width > 0 ? mappings.size() / width : 0;
  const std::uint64_t version = network.version();

  // Bucket rows by shard so every shard mutex is taken at most once.
  static thread_local std::vector<std::vector<std::size_t>> buckets;
  buckets.resize(shard_count_);
  for (auto& b : buckets) b.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t h =
        row_hash(fingerprint, version, mappings.subspan(i * width, width));
    buckets[static_cast<std::size_t>(h % shard_count_)].push_back(i);
  }

  static thread_local Key key;
  key.fingerprint = fingerprint;
  key.version = version;
  std::size_t hit_count = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    if (buckets[s].empty()) continue;
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (std::size_t i : buckets[s]) {
      const auto row = mappings.subspan(i * width, width);
      key.mapping.assign(row.begin(), row.end());
      auto it = shard.table.find(key);
      if (it == shard.table.end()) {
        found[i] = 0;
        continue;
      }
      found[i] = 1;
      out[i] = it->second;
      ++hit_count;
    }
  }
  hits_.fetch_add(static_cast<long long>(hit_count),
                  std::memory_order_relaxed);
  misses_.fetch_add(static_cast<long long>(count - hit_count),
                    std::memory_order_relaxed);
  return hit_count;
}

void EstimateCache::insert_batch(std::uint64_t fingerprint,
                                 std::span<const int> mappings,
                                 std::size_t width,
                                 const hnoc::NetworkModel& network,
                                 std::span<const double> values,
                                 std::span<const char> skip) {
  const std::size_t count = width > 0 ? mappings.size() / width : 0;
  const std::uint64_t version = network.version();

  static thread_local std::vector<std::vector<std::size_t>> buckets;
  buckets.resize(shard_count_);
  for (auto& b : buckets) b.clear();
  for (std::size_t i = 0; i < count; ++i) {
    if (i < skip.size() && skip[i] != 0) continue;
    const std::uint64_t h =
        row_hash(fingerprint, version, mappings.subspan(i * width, width));
    buckets[static_cast<std::size_t>(h % shard_count_)].push_back(i);
  }

  static thread_local Key key;
  key.fingerprint = fingerprint;
  key.version = version;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    if (buckets[s].empty()) continue;
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (std::size_t i : buckets[s]) {
      const auto row = mappings.subspan(i * width, width);
      key.mapping.assign(row.begin(), row.end());
      shard.table.emplace(key, values[i]);
    }
  }
}

void EstimateCache::clear() {
  for (std::size_t s = 0; s < shard_count_; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mutex);
    shards_[s].table.clear();
  }
}

std::size_t EstimateCache::size() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mutex);
    total += shards_[s].table.size();
  }
  return total;
}

}  // namespace hmpi::est
