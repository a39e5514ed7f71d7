#include "telemetry/causal.hpp"

#include "support/env.hpp"

namespace hmpi::telemetry {

ProfMode resolve_prof_mode(ProfMode requested) {
  if (requested != ProfMode::kAuto) return requested;
  // The first four spellings mean kOff, the next five kFull.
  constexpr const char* kModes[] = {"0",  "off",  "false", "no",   "1",
                                    "on", "true", "yes",   "full", "ring"};
  const int mode = support::env::choice("HMPI_PROF", kModes, 9);
  return mode < 4 ? ProfMode::kOff : mode < 9 ? ProfMode::kFull : ProfMode::kRing;
}

CausalLog::CausalLog(int ranks, ProfMode mode, std::size_t ring_capacity)
    : mode_(mode == ProfMode::kAuto ? ProfMode::kRing : mode),
      ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity) {
  shards_.reserve(static_cast<std::size_t>(ranks > 0 ? ranks : 0));
  for (int r = 0; r < ranks; ++r) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void CausalLog::record(int rank, const CausalEvent& event) {
  if (mode_ == ProfMode::kOff) return;
  if (rank < 0 || rank >= ranks()) return;
  Shard& shard = *shards_[static_cast<std::size_t>(rank)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (mode_ == ProfMode::kFull || shard.events.size() < ring_capacity_) {
    shard.events.push_back(event);
    return;
  }
  shard.events[shard.head] = event;
  shard.head = (shard.head + 1) % ring_capacity_;
  ++shard.dropped;
}

std::vector<CausalEvent> CausalLog::events_of(int rank) const {
  std::vector<CausalEvent> out;
  if (rank < 0 || rank >= ranks()) return out;
  const Shard& shard = *shards_[static_cast<std::size_t>(rank)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  out.reserve(shard.events.size());
  // Rotate so the oldest surviving event comes first.
  for (std::size_t i = 0; i < shard.events.size(); ++i) {
    out.push_back(shard.events[(shard.head + i) % shard.events.size()]);
  }
  return out;
}

std::uint64_t CausalLog::dropped_of(int rank) const {
  if (rank < 0 || rank >= ranks()) return 0;
  const Shard& shard = *shards_[static_cast<std::size_t>(rank)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.dropped;
}

std::size_t CausalLog::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->events.size();
  }
  return total;
}

}  // namespace hmpi::telemetry
