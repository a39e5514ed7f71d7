#include "coll/tuner.hpp"

#include <algorithm>
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
  h ^= k.feedback_gen * 0xc2b2ae3d27d4eb4fULL;
  return static_cast<std::size_t>(h ^ (h >> 29));
}

CollTuner::CollTuner(const hnoc::Cluster& topology, Options options)
    : model_(topology), options_(options) {}

void CollTuner::set_policy(const CollPolicy& policy) {
  std::lock_guard<std::mutex> lock(mutex_);
  policy_ = policy;
  memo_.clear();
}

CollPolicy CollTuner::policy() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return policy_;
}

CollTuner::Selection CollTuner::pick(CollOp op,
                                     std::span<const int> member_procs,
                                     std::size_t rep_bytes,
                                     std::uint64_t feedback_gen) const {
  Selection best;
  for (int algo = 1; algo <= algo_count(op); ++algo) {
    double cost = collective_cost(op, algo, member_procs, rep_bytes, model_,
                                  options_.cost);
    if (feedback_gen > 0) {
      const double ratio =
          active_ratio_[static_cast<int>(op)][static_cast<std::size_t>(algo)];
      if (ratio > 0.0) cost *= ratio;
    }
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
  const int forced = policy_.choice(op);
  if (!options_.predict || forced != 0) {
    if (predicted_s != nullptr) *predicted_s = -1.0;
    return forced != 0 ? forced : legacy_default(op);
  }

  Key key;
  key.op = static_cast<std::uint8_t>(op);
  key.bucket = bucket_of(bytes);
  key.roster_hash = roster_hash(member_procs);
  key.feedback_gen = feedback_gen_;

  auto it = memo_.find(key);
  if (it != memo_.end()) {
    ++hits_;
    if (predicted_s != nullptr) *predicted_s = it->second.predicted_s;
    return it->second.algo;
  }
  ++misses_;
  const Selection best =
      pick(op, member_procs, representative_bytes(key.bucket), feedback_gen_);
  memo_.emplace(key, best);
  if (predicted_s != nullptr) *predicted_s = best.predicted_s;
  return best.algo;
}

void CollTuner::observe(CollOp op, int algo, std::size_t /*bytes*/,
                        double measured_s, double predicted_s) {
  if (!options_.feedback || predicted_s <= 0.0 || measured_s <= 0.0 ||
      algo <= 0 || algo > 7) {
    return;
  }
  const double ratio = measured_s / predicted_s;
  std::lock_guard<std::mutex> lock(mutex_);
  double& r = pending_ratio_[static_cast<int>(op)][static_cast<std::size_t>(algo)];
  r = r > 0.0 ? (1.0 - options_.feedback_alpha) * r + options_.feedback_alpha * ratio
              : ratio;
  pending_dirty_ = true;
}

void CollTuner::promote_feedback() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!pending_dirty_) return;
  std::copy(&pending_ratio_[0][0], &pending_ratio_[0][0] + kNumCollOps * 8,
            &active_ratio_[0][0]);
  pending_dirty_ = false;
  ++feedback_gen_;  // re-keys the memo: stale selections miss and re-rank
}

std::uint64_t CollTuner::cache_hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t CollTuner::cache_misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

double CollTuner::feedback_ratio(CollOp op, int algo) const {
  if (algo <= 0 || algo > 7) return 0.0;
  std::lock_guard<std::mutex> lock(mutex_);
  return active_ratio_[static_cast<int>(op)][static_cast<std::size_t>(algo)];
}

}  // namespace hmpi::coll
