#include "telemetry/causal.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <utility>

#include "support/env.hpp"

namespace hmpi::telemetry {
namespace {

using K = CausalEvent::Kind;
using F = EventField;
using P = PathRole;

constexpr std::array<EventArg, 5> kMessageArgs = {
    {{"peer", F::kPeer}, {"tag", F::kTag}, {"bytes", F::kBytes}}};
constexpr std::array<EventArg, 5> kAdaptArgs = {{{"group_id", F::kBytes},
                                                 {"signal", F::kPeer},
                                                 {"severity", F::kT1},
                                                 {"predicted_gain_s", F::kValue}}};
constexpr std::array<EventArg, 5> kSchedArgs = {{{"job", F::kBytes},
                                                 {"priority", F::kPeer},
                                                 {"procs", F::kTag},
                                                 {"predicted_s", F::kValue},
                                                 {"progress", F::kT1}}};

// docs/observability.md's event table shows these rows verbatim, and
// test_telemetry fails when the two differ. Instants end where they start;
// those with two values keep the second in t1.
constexpr EventSpec kCatalog[] = {
    {K::kCompute, "compute", 'X', P::kCompute, false, F::kValue, F::kT1,
     {{{"units", F::kValue}}},
     "`Proc::compute`: the interval on the rank's machine"},
    {K::kElapse, "elapse", 0, P::kElapse, false, F::kZero, F::kT1, {},
     "`Proc::elapse`: modelled local time, blamed like compute"},
    {K::kSend, "send", 'X', P::kSend, false, F::kZero, F::kValue, kMessageArgs,
     "a message left: the send overhead is [t0, t1], the transfer ends at "
     "`value`"},
    {K::kDrop, "drop", 'X', P::kSend, false, F::kZero, F::kValue, kMessageArgs,
     "a send the fault plan dropped (docs/faults.md)"},
    {K::kDelay, "delay", 'X', P::kSend, false, F::kZero, F::kValue, kMessageArgs,
     "a send the fault plan delayed"},
    {K::kRecv, "recv", 'X', P::kRecv, false, F::kZero, F::kT1, kMessageArgs,
     "a receive, from entry to match; `value` is the message's arrival"},
    {K::kLinkBlocked, "link_blocked", 'X', P::kNone, true, F::kZero, F::kT1,
     kMessageArgs, "a send's transfer waited for a link outage to end"},
    {K::kCrash, "crash", 'i', P::kNone, false, F::kZero, F::kT0, {},
     "the fault plan killed the process"},
    {K::kSuspect, "suspect", 'i', P::kNone, true, F::kZero, F::kT0, {},
     "a recon timeout marked machine `proc` suspect"},
    {K::kRecover, "recover", 'i', P::kNone, true, F::kZero, F::kT0, {},
     "a recon cleared machine `proc`'s suspect mark"},
    {K::kMapperSearch, "mapper_search", 'i', P::kNone, true, F::kValue, F::kT0,
     {{{"evaluations", F::kBytes},
       {"hit_rate", F::kT1},
       {"threads", F::kPeer},
       {"wall_seconds", F::kValue}}},
     "a group-selection search finished; `tag` is its hit rate in percent"},
    {K::kMapperBatch, "mapper_batch", 'i', P::kNone, true, F::kValue, F::kT0,
     {{{"chunks", F::kPeer}, {"candidates", F::kBytes}}},
     "that search scored through the batch path (docs/mapper.md)"},
    {K::kCollSelect, "coll_select", 'i', P::kNone, true, F::kValue, F::kT0,
     {{{"op", F::kCollOp},
       {"algo", F::kCollAlgo},
       {"bytes", F::kBytes},
       {"predicted_s", F::kValue}}},
     "a collective chose its algorithm; `peer` is the algo, `tag` the op"},
    {K::kEstCompile, "est_compile", 'i', P::kNone, true, F::kValue, F::kT0,
     {{{"ops", F::kBytes}, {"seconds", F::kValue}}},
     "a model was compiled to the cost IR (docs/estimator.md)"},
    {K::kAdaptTrigger, "adapt_trigger", 'i', P::kNone, true, F::kValue, F::kT0,
     kAdaptArgs, "the adaptation controller asked for a migration"},
    {K::kAdaptMigrate, "adapt_migrate", 'i', P::kNone, true, F::kValue, F::kT0,
     kAdaptArgs, "a guarded migration committed (docs/adaptation.md)"},
    {K::kAdaptRollback, "adapt_rollback", 'i', P::kNone, true, F::kValue,
     F::kT0, kAdaptArgs, "a migration priced worse and was rolled back"},
    {K::kSchedDispatch, "sched_dispatch", 'i', P::kNone, true, F::kValue,
     F::kT0, kSchedArgs, "the scheduler dispatched a job (docs/scheduler.md)"},
    {K::kSchedPreempt, "sched_preempt", 'i', P::kNone, true, F::kValue, F::kT0,
     kSchedArgs, "the scheduler revoked a job's leases and requeued it"},
};

constexpr bool in_kind_order() {
  for (std::size_t i = 0; i < std::size(kCatalog); ++i) {
    if (static_cast<std::size_t>(kCatalog[i].kind) != i) return false;
  }
  return std::size(kCatalog) == static_cast<std::size_t>(K::kSchedPreempt) + 1;
}
static_assert(in_kind_order(), "event_spec() indexes the catalogue by kind");

}  // namespace

std::span<const EventSpec> event_catalog() { return kCatalog; }

const EventSpec& event_spec(CausalEvent::Kind kind) {
  return kCatalog[static_cast<std::size_t>(kind)];
}

std::string_view kind_name(CausalEvent::Kind kind) {
  return event_spec(kind).name;
}

double field_value(const CausalEvent& event, EventField field) {
  switch (field) {
    case F::kZero: return 0.0;
    case F::kProc: return event.proc;
    case F::kPeer: return event.peer;
    case F::kTag: return event.tag;
    case F::kContext: return event.context;
    case F::kBytes:
      return static_cast<double>(static_cast<std::int64_t>(event.bytes));
    case F::kT0: return event.t0;
    case F::kT1: return event.t1;
    case F::kValue: return event.value;
    case F::kCollOp: return event.coll_op;
    case F::kCollAlgo: return event.coll_algo;
  }
  return 0.0;
}

double event_arg(const CausalEvent& event, std::string_view name) {
  if (name == "processor") return event.proc;
  for (const EventArg& arg : event_spec(event.kind).args) {
    if (!arg.name.empty() && arg.name == name) {
      return field_value(event, arg.field);
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

ProfMode resolve_prof_mode(ProfMode requested) {
  if (requested != ProfMode::kAuto) return requested;
  // The first four spellings mean kOff, the next five kFull.
  constexpr const char* kModes[] = {"0",  "off",  "false", "no",   "1",
                                    "on", "true", "yes",   "full", "ring"};
  const int mode = support::env::choice("HMPI_PROF", kModes, 9);
  return mode < 4 ? ProfMode::kOff : mode < 9 ? ProfMode::kFull : ProfMode::kRing;
}

CausalLog::CausalLog(std::vector<int> placement, ProfMode mode,
                     std::size_t ring_capacity, bool traced)
    : mode_(traced                      ? ProfMode::kFull
            : mode == ProfMode::kAuto ? ProfMode::kRing
                                      : mode),
      traced_(traced),
      ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity),
      placement_(std::move(placement)),
      counts_(placement_.size()) {}

std::uint64_t CausalLog::kept(const RankCount& count) const noexcept {
  return mode_ == ProfMode::kRing ? std::min<std::uint64_t>(count.held,
                                                            ring_capacity_)
                                  : count.held;
}

template <typename Visit>
void CausalLog::for_each_kept(Visit&& visit) const {
  // Each rank's oldest held - kept entries are the ones the ring dropped.
  std::vector<std::uint64_t> skip(counts_.size());
  for (std::size_t r = 0; r < counts_.size(); ++r) {
    skip[r] = counts_[r].held - kept(counts_[r]);
  }
  for (std::size_t i = 0; i < entries_; ++i) {
    const Chunk& chunk = chunks_[i / kChunkEvents];
    const std::size_t at = i % kChunkEvents;
    const auto rank = static_cast<std::size_t>(chunk.ranks[at]);
    if (skip[rank] > 0) {
      --skip[rank];
      continue;
    }
    visit(rank, chunk.events[at]);
  }
}

void CausalLog::record(int rank, const CausalEvent& event) {
  if (mode_ == ProfMode::kOff) return;
  if (rank < 0 || rank >= ranks()) return;
  if (!traced_ && event_spec(event.kind).traced_only) return;
  std::lock_guard<std::mutex> lock(*mutex_);
  if (entries_ / kChunkEvents == chunks_.size()) {
    Chunk& fresh = chunks_.emplace_back();
    fresh.events.reserve(kChunkEvents);
    fresh.ranks.reserve(kChunkEvents);
  }
  Chunk& chunk = chunks_[entries_ / kChunkEvents];
  chunk.events.push_back(event);
  chunk.ranks.push_back(rank);
  ++entries_;
  ++counts_[static_cast<std::size_t>(rank)].held;
  if (mode_ == ProfMode::kRing &&
      entries_ == 2 * ring_capacity_ * counts_.size()) {
    compact();
  }
}

void CausalLog::compact() {
  std::size_t kept_entries = 0;
  for_each_kept([&](std::size_t rank, const CausalEvent& event) {
    // kept_entries never passes the entry being read, so this overwrites
    // only entries already visited.
    Chunk& chunk = chunks_[kept_entries / kChunkEvents];
    chunk.events[kept_entries % kChunkEvents] = event;
    chunk.ranks[kept_entries % kChunkEvents] = static_cast<std::int32_t>(rank);
    ++kept_entries;
  });
  for (RankCount& count : counts_) {
    count.dropped += count.held - kept(count);
    count.held = kept(count);
  }
  // Chunks past the kept entries empty out but keep their capacity.
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    const std::size_t first = c * kChunkEvents;
    const std::size_t n =
        kept_entries > first ? std::min(kept_entries - first, kChunkEvents) : 0;
    chunks_[c].events.resize(n);
    chunks_[c].ranks.resize(n);
  }
  entries_ = kept_entries;
}

std::vector<CausalEvent> CausalLog::events_of(int rank) const {
  std::vector<CausalEvent> out;
  if (rank < 0 || rank >= ranks()) return out;
  std::lock_guard<std::mutex> lock(*mutex_);
  out.reserve(kept(counts_[static_cast<std::size_t>(rank)]));
  for_each_kept([&](std::size_t r, const CausalEvent& event) {
    if (r == static_cast<std::size_t>(rank)) out.push_back(event);
  });
  return out;
}

std::vector<std::vector<CausalEvent>> CausalLog::events_by_rank() const {
  std::vector<std::vector<CausalEvent>> out(counts_.size());
  std::lock_guard<std::mutex> lock(*mutex_);
  for (std::size_t r = 0; r < counts_.size(); ++r) {
    out[r].reserve(kept(counts_[r]));
  }
  for_each_kept([&](std::size_t rank, const CausalEvent& event) {
    out[rank].push_back(event);
  });
  return out;
}

std::uint64_t CausalLog::dropped_of(int rank) const {
  if (rank < 0 || rank >= ranks()) return 0;
  std::lock_guard<std::mutex> lock(*mutex_);
  const RankCount& count = counts_[static_cast<std::size_t>(rank)];
  return count.dropped + (count.held - kept(count));
}

std::size_t CausalLog::size() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  std::size_t total = 0;
  for (const RankCount& count : counts_) total += kept(count);
  return total;
}

}  // namespace hmpi::telemetry
