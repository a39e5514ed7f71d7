// Closed-loop adaptation: drift detection and guarded migration policy.
//
// The paper's runtime selects the fastest group ONCE, from speeds measured
// at HMPI_Recon time. Real networks drift — hnoc's load profiles simulate
// exactly that — and a selection that was optimal at t=0 silently decays.
// This header is the policy half of the closed loop that fixes it:
//
//   observe  -> AdaptationController::note_progress (prediction divergence)
//               AdaptationController::note_drift    (recon speed drift)
//   decide   -> guarded policy: EWMA smoothing, hysteresis (K consecutive
//               violations), cooldown windows, exponential backoff after a
//               failed/rolled-back migration
//   act      -> Runtime::adapt_migrate prices the move with the cost IR and
//               performs a voluntary respawn (runtime.hpp), rolling back to
//               the previous roster when the new one prices worse
//
// The controller itself is pure bookkeeping: no communication, no clocks of
// its own (time advances only through the measured durations fed to it), so
// a fixed input sequence yields a bit-identical decision sequence — the
// property the determinism tests pin down. Decisions are made by the group
// parent and broadcast; see docs/adaptation.md.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

namespace hmpi::adapt {

/// Why the controller asked for (or logged) an adaptation.
enum class AdaptSignal : std::int32_t {
  kNone = 0,     ///< No violation.
  kDivergence,   ///< Measured makespan diverged from the prediction.
  kSpeedDrift,   ///< Recon-measured speeds drifted from the group snapshot.
  kBlameMachine, ///< Critical-path blame concentrated on one machine's
                 ///< compute (telemetry/critpath.hpp; a "slow machine").
  kBlameLink,    ///< Critical-path blame concentrated on one link's wait +
                 ///< transfer time (a "slow link").
};

/// Stable lower-case name ("none", "divergence", "speed_drift",
/// "blame_machine", "blame_link").
const char* signal_name(AdaptSignal signal);

/// Tunables of the adaptation policy. Identical on every process (like
/// RuntimeConfig). Environment overrides: HMPI_ADAPT (on/off),
/// HMPI_ADAPT_THRESHOLD (relative divergence threshold),
/// HMPI_ADAPT_COOLDOWN (virtual seconds between migrations),
/// HMPI_ADAPT_BLAME (blame triggers on/off).
struct AdaptConfig {
  /// Master switch. Off = the runtime behaves exactly as before this
  /// subsystem existed: adapt_observe/adapt_recon are zero-communication
  /// no-ops and adapt_migrate refuses to run.
  bool enabled = false;
  /// Relative error |measured - predicted| / predicted (and relative speed
  /// drift) above which a round counts as a violation.
  double threshold = 0.25;
  /// EWMA smoothing factor for the divergence signal in (0, 1]; 1 disables
  /// smoothing (each round judged on its own).
  double ewma_alpha = 0.5;
  /// Consecutive violating rounds required before a trigger (hysteresis).
  int hysteresis = 2;
  /// Virtual seconds after a migration (or rollback) during which no new
  /// trigger fires. Time advances by the measured durations fed to
  /// note_progress — the synchronized axis every member agrees on.
  double cooldown_s = 0.0;
  /// Minimum predicted gain (seconds) a migration must clear on top of its
  /// estimated cost before the gate opens.
  double min_gain_s = 0.0;
  /// Fixed respawn overhead charged to every candidate migration, on top of
  /// the state-transfer time derived from state_bytes.
  double migration_cost_s = 0.0;
  /// Migrations that rolled back before the controller stops trying
  /// entirely (bounded retry).
  int max_retries = 3;
  /// Cooldown multiplier applied per rollback (exponential backoff).
  double retry_backoff = 2.0;
  /// Feed critical-path blame attribution (telemetry/critpath.hpp) into the
  /// trigger logic: a machine or link owning more than `blame_share` of the
  /// critical path counts as a violation, distinguishing "slow machine"
  /// (kBlameMachine) from "slow link" (kBlameLink). Off by default — blame
  /// triggers change no behaviour unless explicitly enabled. Env:
  /// HMPI_ADAPT_BLAME.
  bool blame = false;
  /// Critical-path share above which one machine/link is blamed (0, 1].
  double blame_share = 0.5;

  /// Applies HMPI_ADAPT / HMPI_ADAPT_THRESHOLD / HMPI_ADAPT_COOLDOWN /
  /// HMPI_ADAPT_BLAME on top of the programmatic values: unset or empty
  /// keeps a value, and a malformed or out-of-range one (a threshold <= 0,
  /// a negative cooldown) throws InvalidArgument naming the variable
  /// (support/env.hpp).
  AdaptConfig with_env() const;
};

/// What the controller wants done, returned by the observe calls.
struct AdaptDecision {
  bool migrate = false;       ///< Hysteresis satisfied; try adapt_migrate.
  AdaptSignal signal = AdaptSignal::kNone;  ///< Violating signal, if any.
  double severity = 0.0;      ///< Smoothed relative error behind the call.
  /// Set when this observation supplied a pending migration's realized
  /// gain (closing its ledger entry); the gain itself is below.
  bool closed_migration = false;
  double realized_gain_s = 0.0;
};

/// How one adaptation attempt ended.
enum class AdaptOutcomeKind : std::int32_t {
  kMigrated,    ///< New roster adopted and kept.
  kRolledBack,  ///< New roster priced worse; previous roster restored.
  kSuppressed,  ///< Cost/benefit gate rejected the move (group kept).
};

/// Stable lower-case name ("migrated", "rolled_back", "suppressed").
const char* outcome_name(AdaptOutcomeKind outcome);

/// One ledger entry: a decision the runtime acted on (or suppressed), with
/// its predicted and — once the next measured round lands — realized gain.
struct AdaptRecord {
  long long group_id = -1;      ///< Group the decision was made for.
  long long new_group_id = -1;  ///< Successor group (kMigrated only).
  double time_s = 0.0;          ///< Controller virtual time of the decision.
  AdaptSignal signal = AdaptSignal::kNone;
  AdaptOutcomeKind outcome = AdaptOutcomeKind::kSuppressed;
  double severity = 0.0;        ///< Smoothed violation level at trigger.
  double predicted_old_s = 0.0; ///< Re-priced makespan of the old roster.
  double predicted_new_s = 0.0; ///< Predicted makespan of the new roster.
  double cost_s = 0.0;          ///< Respawn + state-transfer estimate.
  double realized_gain_s = 0.0; ///< old round time - first new round time.
  bool has_realized = false;    ///< realized_gain_s is populated.
  std::vector<int> old_members; ///< World ranks before the decision.
  std::vector<int> new_members; ///< World ranks after (empty if unchanged).
};

/// The decision engine. One per Runtime; only the group parent's instance
/// actually decides (members receive the decision by broadcast), so the
/// parent's ledger is the canonical record of the run.
///
/// Thread-compatible, not thread-safe: each simulated process owns its
/// controller and calls it from its own thread only.
class AdaptationController {
 public:
  explicit AdaptationController(AdaptConfig config);

  const AdaptConfig& config() const noexcept { return config_; }

  /// Feeds one measured round of `group_id`: `predicted_s` is the group's
  /// estimated time, `measured_s` what the round actually took. Advances
  /// the controller clock by `measured_s`, updates the EWMA divergence and
  /// the hysteresis streak, and — first call after a migration — closes the
  /// pending ledger entry with the realized gain.
  AdaptDecision note_progress(long long group_id, double predicted_s,
                              double measured_s);

  /// Feeds a recon-measured drift observation: `drift` is the maximum
  /// relative speed change across the group's members since the group was
  /// created. Does not advance the clock (recon is instantaneous on the
  /// round axis). Same hysteresis/cooldown gates as note_progress.
  AdaptDecision note_drift(long long group_id, double drift);

  /// Feeds a critical-path blame observation: `signal` names the dominant
  /// entity kind (kBlameMachine or kBlameLink) and `share` its fraction of
  /// the critical path in [0, 1]. A share above config().blame_share counts
  /// as a violation; hysteresis/cooldown gates as note_drift. No-op
  /// returning a default decision when config().blame is false.
  AdaptDecision note_blame(long long group_id, AdaptSignal signal,
                           double share);

  /// Records a committed migration and arms the cooldown window. The entry
  /// stays open until the next note_progress supplies the realized gain.
  void note_migration(AdaptRecord record);

  /// Records a rollback: arms an extended cooldown (cooldown_s *
  /// retry_backoff^rollbacks) and counts against max_retries.
  void note_rollback(AdaptRecord record);

  /// Records a gate-suppressed attempt (kept group); resets every streak so
  /// the gate is not hammered every subsequent round.
  void note_suppressed(AdaptRecord record);

  /// Cumulative measured virtual time fed through note_progress.
  double now_s() const noexcept { return now_s_; }

  /// Current smoothed divergence of `group_id` (0 when unseen).
  double divergence(long long group_id) const;

  /// Migrations that ended in rollback so far.
  int rollbacks() const noexcept { return rollbacks_; }

  /// True while a cooldown window (possibly backoff-extended) is open.
  bool in_cooldown() const noexcept { return now_s_ < cooldown_until_s_; }

  /// Every decision recorded, in order.
  const std::vector<AdaptRecord>& ledger() const noexcept { return ledger_; }

  /// `{"adaptations": [...]}` (validated by tools/telemetry_check).
  void write_json(std::ostream& os) const;

  void clear();

 private:
  /// The signal families that count violations separately (blame's
  /// machine and link signals share one streak).
  enum Family { kDivergenceFamily, kDriftFamily, kBlameFamily, kFamilies };

  struct GroupState {
    double ewma = 0.0;
    bool ewma_seeded = false;
    /// Consecutive violating observations, per family.
    std::array<int, kFamilies> streaks{};
    double last_measured_s = 0.0;
    bool has_measured = false;
  };

  bool gates_open() const;
  void arm_cooldown(double factor);
  /// The hysteresis rule shared by every signal: a violation extends the
  /// family's streak, and a streak that reaches config().hysteresis while
  /// the gates are open asks to migrate and starts over; a clean
  /// observation resets it. Returns whether to migrate.
  bool extend_streak(GroupState& state, Family family, bool violated);

  AdaptConfig config_;
  std::unordered_map<long long, GroupState> groups_;
  std::vector<AdaptRecord> ledger_;
  double now_s_ = 0.0;
  double cooldown_until_s_ = 0.0;
  int rollbacks_ = 0;
  /// Index into ledger_ of a migration awaiting its realized gain; -1 none.
  std::ptrdiff_t open_migration_ = -1;
};

}  // namespace hmpi::adapt
