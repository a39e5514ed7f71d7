#include "coll/tuner.hpp"

#include <bit>

namespace hmpi::coll {

namespace {

// FNV-1a over the roster's machine sequence: the placement, not the member
// identities, is what the cost model depends on.
std::uint64_t roster_hash(std::span<const int> member_procs) {
  std::uint64_t h = 1469598103934665603ULL;
  for (int p : member_procs) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(p));
    h *= 1099511628211ULL;
  }
  h ^= member_procs.size();
  h *= 1099511628211ULL;
  return h;
}

// Power-of-two size buckets; the representative (upper bound) size is what
// gets priced, so every size in a bucket shares one cached selection.
std::uint32_t bucket_of(std::size_t bytes) {
  return bytes == 0 ? 0 : static_cast<std::uint32_t>(std::bit_width(bytes));
}

std::size_t representative_bytes(std::uint32_t bucket) {
  return bucket == 0 ? 0 : std::size_t{1} << (bucket - 1);
}

}  // namespace

std::size_t CollTuner::KeyHash::operator()(const Key& k) const noexcept {
  std::uint64_t h = k.roster_hash;
  h ^= (static_cast<std::uint64_t>(k.op) << 56) ^
       (static_cast<std::uint64_t>(k.bucket) << 32);
  return static_cast<std::size_t>(h ^ (h >> 29));
}

CollTuner::CollTuner(const hnoc::Cluster& topology, Options options)
    : model_(topology), options_(options) {}

Choice CollTuner::pick(CollOp op, std::span<const int> member_procs,
                       std::size_t rep_bytes) const {
  Choice best;
  for (int algo = 1; algo <= algo_count(op); ++algo) {
    const double cost = collective_cost(op, algo, member_procs, rep_bytes,
                                        model_, options_.cost);
    if (best.algo == 0 || cost < best.predicted_s) {
      best.algo = algo;
      best.predicted_s = cost;
    }
  }
  return best;
}

int CollTuner::select(CollOp op, std::span<const int> member_procs,
                      std::size_t bytes, double* predicted_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  Key key;
  key.op = static_cast<std::uint8_t>(op);
  key.bucket = bucket_of(bytes);
  key.roster_hash = roster_hash(member_procs);

  auto it = memo_.find(key);
  if (it != memo_.end()) {
    ++hits_;
    if (predicted_s != nullptr) *predicted_s = it->second.predicted_s;
    return it->second.algo;
  }
  ++misses_;
  const Choice best = pick(op, member_procs, representative_bytes(key.bucket));
  memo_.emplace(key, best);
  if (predicted_s != nullptr) *predicted_s = best.predicted_s;
  return best.algo;
}

std::uint64_t CollTuner::cache_hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t CollTuner::cache_misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

}  // namespace hmpi::coll
