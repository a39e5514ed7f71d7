#include "hmpi/adapt.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>

#include "support/env.hpp"
#include "support/error.hpp"
#include "telemetry/json.hpp"

namespace hmpi::adapt {

namespace {

void write_members(std::ostream& os, const std::vector<int>& members) {
  os << '[';
  for (std::size_t i = 0; i < members.size(); ++i) {
    os << (i == 0 ? "" : ", ") << members[i];
  }
  os << ']';
}

}  // namespace

const char* signal_name(AdaptSignal signal) {
  switch (signal) {
    case AdaptSignal::kNone: return "none";
    case AdaptSignal::kDivergence: return "divergence";
    case AdaptSignal::kSpeedDrift: return "speed_drift";
    case AdaptSignal::kBlameMachine: return "blame_machine";
    case AdaptSignal::kBlameLink: return "blame_link";
  }
  return "none";
}

const char* outcome_name(AdaptOutcomeKind outcome) {
  switch (outcome) {
    case AdaptOutcomeKind::kMigrated: return "migrated";
    case AdaptOutcomeKind::kRolledBack: return "rolled_back";
    case AdaptOutcomeKind::kSuppressed: return "suppressed";
  }
  return "suppressed";
}

AdaptConfig AdaptConfig::with_env() const {
  namespace env = support::env;
  AdaptConfig config = *this;
  config.enabled = env::flag("HMPI_ADAPT", enabled);
  config.threshold =
      env::number("HMPI_ADAPT_THRESHOLD", /*positive=*/true, threshold);
  config.cooldown_s =
      env::number("HMPI_ADAPT_COOLDOWN", /*positive=*/false, cooldown_s);
  config.blame = env::flag("HMPI_ADAPT_BLAME", blame);
  return config;
}

AdaptationController::AdaptationController(AdaptConfig config)
    : config_(config) {
  support::require(config_.threshold > 0.0, "adapt threshold must be > 0");
  support::require(config_.ewma_alpha > 0.0 && config_.ewma_alpha <= 1.0,
                   "adapt ewma_alpha must be in (0, 1]");
  support::require(config_.hysteresis >= 1, "adapt hysteresis must be >= 1");
  support::require(config_.cooldown_s >= 0.0, "adapt cooldown must be >= 0");
  support::require(config_.retry_backoff >= 1.0,
                   "adapt retry_backoff must be >= 1");
  support::require(config_.max_retries >= 0, "adapt max_retries must be >= 0");
  support::require(config_.blame_share > 0.0 && config_.blame_share <= 1.0,
                   "adapt blame_share must be in (0, 1]");
}

bool AdaptationController::gates_open() const {
  return !in_cooldown() && rollbacks_ < config_.max_retries;
}

void AdaptationController::arm_cooldown(double factor) {
  cooldown_until_s_ = now_s_ + config_.cooldown_s * factor;
}

bool AdaptationController::extend_streak(GroupState& state, Family family,
                                         bool violated) {
  int& streak = state.streaks[family];
  if (!violated) {
    streak = 0;
    return false;
  }
  streak += 1;
  if (streak >= config_.hysteresis && gates_open()) {
    streak = 0;
    return true;
  }
  return false;
}

AdaptDecision AdaptationController::note_progress(long long group_id,
                                                 double predicted_s,
                                                 double measured_s) {
  support::require(predicted_s > 0.0,
                   "adapt note_progress needs a positive prediction");
  support::require(measured_s >= 0.0,
                   "adapt note_progress needs a non-negative measurement");
  GroupState& state = groups_[group_id];

  // First measured round after a committed migration: close its ledger
  // entry. The realized gain compares the last round on the old roster with
  // this round on the new one — the honest "what did the move buy" number.
  bool closed_migration = false;
  double realized_gain_s = 0.0;
  if (open_migration_ >= 0) {
    AdaptRecord& open = ledger_[static_cast<std::size_t>(open_migration_)];
    if (open.new_group_id == group_id && !state.has_measured) {
      open.realized_gain_s = open.predicted_old_s - measured_s;
      // The re-priced old roster stands in for "last old round" when the
      // trigger fired before the old group measured a round (drift-only
      // triggers); otherwise prefer the actually measured round.
      const auto old_state = groups_.find(open.group_id);
      if (old_state != groups_.end() && old_state->second.has_measured) {
        open.realized_gain_s = old_state->second.last_measured_s - measured_s;
      }
      open.has_realized = true;
      closed_migration = true;
      realized_gain_s = open.realized_gain_s;
    }
    open_migration_ = -1;
  }

  now_s_ += measured_s;
  state.last_measured_s = measured_s;
  state.has_measured = true;

  const double rel = std::abs(measured_s - predicted_s) / predicted_s;
  state.ewma = state.ewma_seeded
                   ? config_.ewma_alpha * rel +
                         (1.0 - config_.ewma_alpha) * state.ewma
                   : rel;
  state.ewma_seeded = true;

  AdaptDecision decision;
  decision.severity = state.ewma;
  decision.closed_migration = closed_migration;
  decision.realized_gain_s = realized_gain_s;
  const bool violated = state.ewma > config_.threshold;
  if (violated) decision.signal = AdaptSignal::kDivergence;
  decision.migrate = extend_streak(state, kDivergenceFamily, violated);
  return decision;
}

AdaptDecision AdaptationController::note_drift(long long group_id,
                                               double drift) {
  support::require(drift >= 0.0, "adapt note_drift needs drift >= 0");
  AdaptDecision decision;
  decision.severity = drift;
  const bool violated = drift > config_.threshold;
  if (violated) decision.signal = AdaptSignal::kSpeedDrift;
  decision.migrate = extend_streak(groups_[group_id], kDriftFamily, violated);
  return decision;
}

AdaptDecision AdaptationController::note_blame(long long group_id,
                                               AdaptSignal signal,
                                               double share) {
  support::require(signal == AdaptSignal::kBlameMachine ||
                       signal == AdaptSignal::kBlameLink,
                   "adapt note_blame needs a blame signal");
  support::require(share >= 0.0 && share <= 1.0,
                   "adapt note_blame needs a share in [0, 1]");
  AdaptDecision decision;
  if (!config_.blame) return decision;
  decision.severity = share;
  const bool violated = share > config_.blame_share;
  if (violated) decision.signal = signal;
  decision.migrate = extend_streak(groups_[group_id], kBlameFamily, violated);
  return decision;
}

void AdaptationController::note_migration(AdaptRecord record) {
  record.time_s = now_s_;
  record.outcome = AdaptOutcomeKind::kMigrated;
  arm_cooldown(1.0);
  // The successor group gets a fresh id, so it judges divergence from
  // scratch; the old group's state stays (the realized-gain closure reads
  // its last measured round).
  ledger_.push_back(std::move(record));
  open_migration_ = static_cast<std::ptrdiff_t>(ledger_.size()) - 1;
}

void AdaptationController::note_rollback(AdaptRecord record) {
  record.time_s = now_s_;
  record.outcome = AdaptOutcomeKind::kRolledBack;
  rollbacks_ += 1;
  // Exponential backoff: each rollback doubles (retry_backoff) the quiet
  // window, so a persistently wrong cost model cannot thrash the group.
  double factor = 1.0;
  for (int i = 0; i < rollbacks_; ++i) factor *= config_.retry_backoff;
  arm_cooldown(factor);
  open_migration_ = -1;
  ledger_.push_back(std::move(record));
}

void AdaptationController::note_suppressed(AdaptRecord record) {
  record.time_s = now_s_;
  record.outcome = AdaptOutcomeKind::kSuppressed;
  // Re-seed every streak: the gate said "not worth it" at this severity, so
  // require a fresh run of violations before asking again.
  auto it = groups_.find(record.group_id);
  if (it != groups_.end()) it->second.streaks = {};
  ledger_.push_back(std::move(record));
}

double AdaptationController::divergence(long long group_id) const {
  const auto it = groups_.find(group_id);
  return it != groups_.end() ? it->second.ewma : 0.0;
}

void AdaptationController::write_json(std::ostream& os) const {
  os << "{\n  \"adaptations\": [";
  for (std::size_t i = 0; i < ledger_.size(); ++i) {
    const AdaptRecord& r = ledger_[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"group_id\": " << r.group_id
       << ", \"new_group_id\": " << r.new_group_id
       << ", \"time_s\": " << telemetry::json_number(r.time_s)
       << ", \"signal\": \"" << signal_name(r.signal) << '"'
       << ", \"outcome\": \"" << outcome_name(r.outcome) << '"'
       << ", \"severity\": " << telemetry::json_number(r.severity)
       << ", \"predicted_old_s\": " << telemetry::json_number(r.predicted_old_s)
       << ", \"predicted_new_s\": " << telemetry::json_number(r.predicted_new_s)
       << ", \"cost_s\": " << telemetry::json_number(r.cost_s)
       << ", \"realized_gain_s\": "
       << (r.has_realized ? telemetry::json_number(r.realized_gain_s)
                          : std::string("null"))
       << ", \"old_members\": ";
    write_members(os, r.old_members);
    os << ", \"new_members\": ";
    write_members(os, r.new_members);
    os << "}";
  }
  os << (ledger_.empty() ? "" : "\n  ") << "]\n}\n";
}

void AdaptationController::clear() {
  groups_.clear();
  ledger_.clear();
  now_s_ = 0.0;
  cooldown_until_s_ = 0.0;
  rollbacks_ = 0;
  open_migration_ = -1;
}

}  // namespace hmpi::adapt
