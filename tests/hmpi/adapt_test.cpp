// Closed-loop adaptation (docs/adaptation.md): controller policy units
// (EWMA, hysteresis, cooldown, exponential backoff, ledger closure),
// environment overrides, and full runtime integration — drift-triggered
// guarded migration, rollback of a bad move, ping-pong draft cooldown,
// decision determinism across search thread counts, and the HMPI_ADAPT=off
// bit-identity contract.
#include "hmpi/adapt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "hmpi/runtime.hpp"
#include "hnoc/cluster.hpp"
#include "hnoc/load_profile.hpp"
#include "mpsim/trace.hpp"
#include "support/error.hpp"
#include "telemetry/metrics.hpp"

#include "../scoped_env.hpp"

namespace hmpi {
namespace {

using adapt::AdaptConfig;
using adapt::AdaptDecision;
using adapt::AdaptOutcomeKind;
using adapt::AdaptRecord;
using adapt::AdaptSignal;
using adapt::AdaptationController;
using mp::Proc;
using mp::World;
using pmdl::InstanceBuilder;
using pmdl::Model;
using pmdl::ParamValue;
using pmdl::ScheduleSink;

// ---------------------------------------------------------------------------
// Controller policy units (no simulated world).
// ---------------------------------------------------------------------------

/// Policy with no smoothing and no gates: each round judged on its own.
AdaptConfig plain_config() {
  AdaptConfig c;
  c.enabled = true;
  c.threshold = 0.25;
  c.ewma_alpha = 1.0;
  c.hysteresis = 2;
  c.cooldown_s = 0.0;
  return c;
}

TEST(AdaptController, StableRoundsNeverTrigger) {
  AdaptationController ctl(plain_config());
  for (int i = 0; i < 50; ++i) {
    const AdaptDecision d = ctl.note_progress(1, 1.0, 1.0);
    EXPECT_FALSE(d.migrate);
    EXPECT_EQ(d.signal, AdaptSignal::kNone);
    EXPECT_DOUBLE_EQ(d.severity, 0.0);
  }
  EXPECT_DOUBLE_EQ(ctl.divergence(1), 0.0);
  EXPECT_TRUE(ctl.ledger().empty());
  EXPECT_DOUBLE_EQ(ctl.now_s(), 50.0);
}

TEST(AdaptController, HysteresisRequiresConsecutiveViolations) {
  AdaptationController ctl(plain_config());
  // One violation: streak 1 of 2.
  EXPECT_FALSE(ctl.note_progress(1, 1.0, 2.0).migrate);
  // A clean round resets the streak...
  EXPECT_FALSE(ctl.note_progress(1, 1.0, 1.0).migrate);
  EXPECT_FALSE(ctl.note_progress(1, 1.0, 2.0).migrate);
  // ...so only two *consecutive* violations trigger.
  const AdaptDecision d = ctl.note_progress(1, 1.0, 2.0);
  EXPECT_TRUE(d.migrate);
  EXPECT_EQ(d.signal, AdaptSignal::kDivergence);
  EXPECT_DOUBLE_EQ(d.severity, 1.0);
}

TEST(AdaptController, EwmaSmoothsSingleSpike) {
  AdaptConfig c = plain_config();
  c.ewma_alpha = 0.5;
  c.threshold = 0.5;
  c.hysteresis = 1;
  AdaptationController ctl(c);
  // Seed with a clean round (ewma = 0), then one big spike: the smoothed
  // value is half the raw error.
  EXPECT_FALSE(ctl.note_progress(1, 1.0, 1.0).migrate);
  const AdaptDecision spike = ctl.note_progress(1, 1.0, 1.8);
  EXPECT_NEAR(spike.severity, 0.4, 1e-12);  // 0.5 * 0.8
  EXPECT_FALSE(spike.migrate);
  // A second spike pushes the EWMA over the threshold.
  const AdaptDecision second = ctl.note_progress(1, 1.0, 1.8);
  EXPECT_NEAR(second.severity, 0.6, 1e-12);  // 0.5*0.8 + 0.5*0.4
  EXPECT_TRUE(second.migrate);
}

TEST(AdaptController, CooldownSuppressesUntilTimePasses) {
  AdaptConfig c = plain_config();
  c.hysteresis = 1;
  c.cooldown_s = 10.0;
  AdaptationController ctl(c);
  ctl.note_progress(1, 1.0, 1.0);  // now = 1
  AdaptRecord rec;
  rec.group_id = 1;
  rec.new_group_id = 2;
  ctl.note_migration(rec);  // cooldown until now + 10 = 11
  // A gross violation inside the window must not trigger.
  EXPECT_TRUE(ctl.in_cooldown());
  EXPECT_FALSE(ctl.note_progress(2, 1.0, 5.0).migrate);  // now = 6
  // Once measured time carries the clock past the window, it does.
  EXPECT_TRUE(ctl.note_progress(2, 1.0, 5.0).migrate);  // now = 11
  EXPECT_FALSE(ctl.in_cooldown());
}

TEST(AdaptController, RollbackArmsExponentialBackoffAndBoundedRetry) {
  AdaptConfig c = plain_config();
  c.hysteresis = 1;
  c.cooldown_s = 1.0;
  c.retry_backoff = 2.0;
  c.max_retries = 2;
  AdaptationController ctl(c);
  AdaptRecord rec;
  rec.group_id = 1;

  ctl.note_rollback(rec);  // cooldown until 0 + 1*2^1 = 2
  EXPECT_EQ(ctl.rollbacks(), 1);
  EXPECT_TRUE(ctl.in_cooldown());
  EXPECT_EQ(ctl.ledger().back().outcome, AdaptOutcomeKind::kRolledBack);

  // Past the backoff window and under max_retries: triggers again.
  EXPECT_TRUE(ctl.note_progress(1, 1.0, 5.0).migrate);  // now = 5

  ctl.note_rollback(rec);  // cooldown until 5 + 1*2^2 = 9
  EXPECT_EQ(ctl.rollbacks(), 2);
  EXPECT_TRUE(ctl.in_cooldown());

  // max_retries exhausted: no amount of time or violation reopens the gate.
  EXPECT_FALSE(ctl.note_progress(1, 1.0, 100.0).migrate);  // now = 105
  EXPECT_FALSE(ctl.in_cooldown());
  EXPECT_FALSE(ctl.note_progress(1, 1.0, 100.0).migrate);
}

TEST(AdaptController, RealizedGainClosesMigrationLedgerEntry) {
  AdaptationController ctl(plain_config());
  // Last measured round on the old roster: 2.0s.
  ctl.note_progress(1, 2.0, 2.0);
  AdaptRecord rec;
  rec.group_id = 1;
  rec.new_group_id = 2;
  rec.predicted_old_s = 2.0;
  rec.predicted_new_s = 0.5;
  ctl.note_migration(rec);
  ASSERT_EQ(ctl.ledger().size(), 1u);
  EXPECT_FALSE(ctl.ledger()[0].has_realized);

  // First measured round on the successor closes the entry.
  const AdaptDecision d = ctl.note_progress(2, 0.5, 0.5);
  EXPECT_TRUE(d.closed_migration);
  EXPECT_NEAR(d.realized_gain_s, 1.5, 1e-12);  // 2.0 old round - 0.5 new
  EXPECT_TRUE(ctl.ledger()[0].has_realized);
  EXPECT_NEAR(ctl.ledger()[0].realized_gain_s, 1.5, 1e-12);

  // Later rounds do not re-close it.
  EXPECT_FALSE(ctl.note_progress(2, 0.5, 0.5).closed_migration);
}

TEST(AdaptController, DriftSignalHasItsOwnHysteresis) {
  AdaptationController ctl(plain_config());
  EXPECT_FALSE(ctl.note_drift(1, 0.5).migrate);
  EXPECT_EQ(ctl.note_drift(1, 0.5).signal, AdaptSignal::kSpeedDrift);
  // Streak is now 2 -> but the second call above already triggered.
  AdaptationController ctl2(plain_config());
  ctl2.note_drift(1, 0.5);
  ctl2.note_drift(1, 0.1);  // below threshold: resets the streak
  EXPECT_FALSE(ctl2.note_drift(1, 0.5).migrate);
  EXPECT_TRUE(ctl2.note_drift(1, 0.5).migrate);
  // Drift does not advance the controller clock.
  EXPECT_DOUBLE_EQ(ctl2.now_s(), 0.0);
}

TEST(AdaptController, BlameSignalIsFlagGatedWithHysteresis) {
  // Blame is default-off: even a decisive share produces no decision.
  AdaptationController off(plain_config());
  const AdaptDecision silent =
      off.note_blame(1, AdaptSignal::kBlameMachine, 0.9);
  EXPECT_FALSE(silent.migrate);
  EXPECT_EQ(silent.signal, AdaptSignal::kNone);

  AdaptConfig c = plain_config();
  c.blame = true;
  c.blame_share = 0.5;
  AdaptationController ctl(c);
  // Shares at or below the threshold reset the streak.
  EXPECT_FALSE(ctl.note_blame(1, AdaptSignal::kBlameLink, 0.5).migrate);
  EXPECT_EQ(ctl.note_blame(1, AdaptSignal::kBlameLink, 0.8).signal,
            AdaptSignal::kBlameLink);
  ctl.note_blame(1, AdaptSignal::kBlameLink, 0.2);  // resets
  EXPECT_FALSE(ctl.note_blame(1, AdaptSignal::kBlameLink, 0.8).migrate);
  // Two consecutive decisive shares clear the hysteresis (2) and trigger.
  const AdaptDecision d = ctl.note_blame(1, AdaptSignal::kBlameLink, 0.8);
  EXPECT_TRUE(d.migrate);
  EXPECT_EQ(d.signal, AdaptSignal::kBlameLink);
  EXPECT_DOUBLE_EQ(d.severity, 0.8);
  // Triggering resets the streak.
  EXPECT_FALSE(ctl.note_blame(1, AdaptSignal::kBlameLink, 0.8).migrate);
}

TEST(AdaptController, BlameValidatesItsInputs) {
  AdaptConfig c = plain_config();
  c.blame = true;
  AdaptationController ctl(c);
  EXPECT_THROW(ctl.note_blame(1, AdaptSignal::kDivergence, 0.5),
               InvalidArgument);
  EXPECT_THROW(ctl.note_blame(1, AdaptSignal::kBlameMachine, 1.5),
               InvalidArgument);
  AdaptConfig bad = plain_config();
  bad.blame_share = 0.0;  // must be in (0, 1]
  EXPECT_THROW(AdaptationController{bad}, InvalidArgument);
}

TEST(AdaptController, SuppressedAttemptResetsStreak) {
  AdaptationController ctl(plain_config());
  ctl.note_progress(1, 1.0, 2.0);  // streak 1
  AdaptRecord rec;
  rec.group_id = 1;
  ctl.note_suppressed(rec);
  // The gate said no: a single new violation must not re-trigger.
  EXPECT_FALSE(ctl.note_progress(1, 1.0, 2.0).migrate);
  EXPECT_TRUE(ctl.note_progress(1, 1.0, 2.0).migrate);
  EXPECT_EQ(ctl.ledger().back().outcome, AdaptOutcomeKind::kSuppressed);
}

TEST(AdaptController, SuppressedAttemptResetsEveryStreak) {
  // A suppression re-seeds the blame streak like the divergence and drift
  // ones: with hysteresis 2, the violation after the suppression starts a
  // new streak and does not migrate, whatever the signal.
  AdaptConfig c = plain_config();
  c.blame = true;
  AdaptRecord rec;
  rec.group_id = 1;

  AdaptationController blame(c);
  EXPECT_FALSE(blame.note_blame(1, AdaptSignal::kBlameMachine, 0.9).migrate);
  blame.note_suppressed(rec);
  EXPECT_FALSE(blame.note_blame(1, AdaptSignal::kBlameMachine, 0.9).migrate);
  EXPECT_TRUE(blame.note_blame(1, AdaptSignal::kBlameMachine, 0.9).migrate);

  AdaptationController divergence(c);
  EXPECT_FALSE(divergence.note_progress(1, 1.0, 2.0).migrate);
  divergence.note_suppressed(rec);
  EXPECT_FALSE(divergence.note_progress(1, 1.0, 2.0).migrate);

  AdaptationController drift(c);
  EXPECT_FALSE(drift.note_drift(1, 0.9).migrate);
  drift.note_suppressed(rec);
  EXPECT_FALSE(drift.note_drift(1, 0.9).migrate);
}

TEST(AdaptController, DecisionSequenceIsDeterministic) {
  const auto drive = [](AdaptationController& ctl) {
    std::string log;
    char buf[128];
    const double measured[] = {1.0, 1.4, 2.0, 0.9, 3.0, 3.0, 1.0, 5.0};
    for (double m : measured) {
      const AdaptDecision d = ctl.note_progress(7, 1.0, m);
      std::snprintf(buf, sizeof buf, "%d/%d/%.17g;", d.migrate ? 1 : 0,
                    static_cast<int>(d.signal), d.severity);
      log += buf;
      const AdaptDecision dr = ctl.note_drift(7, m > 2.0 ? 0.6 : 0.0);
      std::snprintf(buf, sizeof buf, "%d/%.17g;", dr.migrate ? 1 : 0,
                    dr.severity);
      log += buf;
    }
    return log;
  };
  AdaptConfig c = plain_config();
  c.ewma_alpha = 0.5;
  AdaptationController a(c);
  AdaptationController b(c);
  EXPECT_EQ(drive(a), drive(b));
  EXPECT_DOUBLE_EQ(a.now_s(), b.now_s());
}

TEST(AdaptController, WriteJsonEmitsLedgerShape) {
  AdaptationController ctl(plain_config());
  ctl.note_progress(1, 1.0, 2.0);
  AdaptRecord rec;
  rec.group_id = 1;
  rec.new_group_id = 2;
  rec.signal = AdaptSignal::kDivergence;
  rec.severity = 1.0;
  rec.predicted_old_s = 2.0;
  rec.predicted_new_s = 0.5;
  rec.old_members = {0, 1};
  rec.new_members = {0, 2};
  ctl.note_migration(rec);

  std::ostringstream open;
  ctl.write_json(open);
  EXPECT_NE(open.str().find("\"adaptations\""), std::string::npos);
  EXPECT_NE(open.str().find("\"outcome\": \"migrated\""), std::string::npos);
  EXPECT_NE(open.str().find("\"signal\": \"divergence\""), std::string::npos);
  EXPECT_NE(open.str().find("\"realized_gain_s\": null"), std::string::npos);
  EXPECT_NE(open.str().find("\"old_members\": [0, 1]"), std::string::npos);

  ctl.note_progress(2, 0.5, 0.4);  // closes the entry
  std::ostringstream closed;
  ctl.write_json(closed);
  EXPECT_EQ(closed.str().find("null"), std::string::npos);

  // An empty ledger is still a valid document.
  ctl.clear();
  std::ostringstream empty;
  ctl.write_json(empty);
  EXPECT_NE(empty.str().find("\"adaptations\": []"), std::string::npos);
}

TEST(AdaptController, ValidatesConfig) {
  const auto with = [](auto mutate) {
    AdaptConfig c = plain_config();
    mutate(c);
    return c;
  };
  EXPECT_THROW(AdaptationController(with([](AdaptConfig& c) { c.threshold = 0.0; })),
               InvalidArgument);
  EXPECT_THROW(AdaptationController(with([](AdaptConfig& c) { c.ewma_alpha = 0.0; })),
               InvalidArgument);
  EXPECT_THROW(AdaptationController(with([](AdaptConfig& c) { c.ewma_alpha = 1.5; })),
               InvalidArgument);
  EXPECT_THROW(AdaptationController(with([](AdaptConfig& c) { c.hysteresis = 0; })),
               InvalidArgument);
  EXPECT_THROW(AdaptationController(with([](AdaptConfig& c) { c.cooldown_s = -1.0; })),
               InvalidArgument);
  EXPECT_THROW(AdaptationController(with([](AdaptConfig& c) { c.retry_backoff = 0.5; })),
               InvalidArgument);
  EXPECT_THROW(AdaptationController(with([](AdaptConfig& c) { c.max_retries = -1; })),
               InvalidArgument);
}

TEST(AdaptConfigEnv, OverridesApplyAndGarbageThrows) {
  AdaptConfig base;
  base.enabled = true;
  base.threshold = 0.25;
  base.cooldown_s = 1.0;
  EXPECT_FALSE(base.blame);  // default off

  // Flags in any case; an empty value keeps the configured value.
  AdaptConfig all_on = base;
  all_on.blame = true;
  AdaptConfig all_off = base;
  all_off.enabled = false;
  for (const char* off : {"off", "OFF", "0", "False"}) {
    ScopedEnv adapt("HMPI_ADAPT", off);
    ScopedEnv blame("HMPI_ADAPT_BLAME", off);
    EXPECT_FALSE(all_on.with_env().enabled) << off;
    EXPECT_FALSE(all_on.with_env().blame) << off;
  }
  for (const char* on : {"on", "ON", "1", "Yes"}) {
    ScopedEnv adapt("HMPI_ADAPT", on);
    ScopedEnv blame("HMPI_ADAPT_BLAME", on);
    EXPECT_TRUE(all_off.with_env().enabled) << on;
    EXPECT_TRUE(all_off.with_env().blame) << on;
  }
  {
    ScopedEnv adapt("HMPI_ADAPT", "");
    ScopedEnv blame("HMPI_ADAPT_BLAME", "");
    EXPECT_TRUE(all_on.with_env().enabled);
    EXPECT_TRUE(all_on.with_env().blame);
    EXPECT_FALSE(all_off.with_env().enabled);
    EXPECT_FALSE(all_off.with_env().blame);
  }
  {
    ScopedEnv threshold("HMPI_ADAPT_THRESHOLD", "0.5");
    ScopedEnv cooldown("HMPI_ADAPT_COOLDOWN", "7.5");
    EXPECT_DOUBLE_EQ(base.with_env().threshold, 0.5);
    EXPECT_DOUBLE_EQ(base.with_env().cooldown_s, 7.5);
  }
  {
    ScopedEnv threshold("HMPI_ADAPT_THRESHOLD", "");
    ScopedEnv cooldown("HMPI_ADAPT_COOLDOWN", "0");
    EXPECT_DOUBLE_EQ(base.with_env().threshold, 0.25);
    EXPECT_DOUBLE_EQ(base.with_env().cooldown_s, 0.0);
  }

  // Anything else throws, naming the knob and what it accepts.
  struct Bad {
    const char* name;
    const char* value;
    const char* accepted;
  };
  for (const Bad& bad : {
           Bad{"HMPI_ADAPT", "maybe", "1|0|true|false|yes|no|on|off"},
           Bad{"HMPI_ADAPT_BLAME", "2", "1|0|true|false|yes|no|on|off"},
           Bad{"HMPI_ADAPT_THRESHOLD", "-1", "finite decimal number > 0"},
           Bad{"HMPI_ADAPT_THRESHOLD", "abc", "finite decimal number > 0"},
           Bad{"HMPI_ADAPT_THRESHOLD", "0", "finite decimal number > 0"},
           Bad{"HMPI_ADAPT_THRESHOLD", "0.5abc", "finite decimal number > 0"},
           Bad{"HMPI_ADAPT_THRESHOLD", "inf", "finite decimal number > 0"},
           Bad{"HMPI_ADAPT_COOLDOWN", "-2", "finite decimal number >= 0"},
           Bad{"HMPI_ADAPT_COOLDOWN", "nan", "finite decimal number >= 0"},
       }) {
    ScopedEnv env(bad.name, bad.value);
    try {
      base.with_env();
      ADD_FAILURE() << bad.name << "=" << bad.value << " was accepted";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(bad.name), std::string::npos) << what;
      EXPECT_NE(what.find(bad.accepted), std::string::npos) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// Runtime integration. Same compute-only model shape as runtime_test.cpp:
// p abstract processors, volumes[a] units each, all in parallel, parent 0.
// ---------------------------------------------------------------------------

Model compute_model() {
  return Model::from_factory(
      "compute", 1, [](std::span<const ParamValue> params) {
        const auto& volumes = std::get<std::vector<long long>>(params[0]);
        InstanceBuilder b("compute");
        const auto p = static_cast<long long>(volumes.size());
        b.shape({p});
        for (int a = 0; a < p; ++a) {
          b.node_volume(a, static_cast<double>(volumes[static_cast<std::size_t>(a)]));
        }
        b.scheme([p](ScheduleSink& s) {
          s.par_begin();
          for (long long a = 0; a < p; ++a) {
            s.par_iter_begin();
            const long long c[1] = {a};
            s.compute(c, 100.0);
          }
          s.par_end();
        });
        return b.build();
      });
}

std::vector<ParamValue> volumes(int p) {
  return {pmdl::array(std::vector<long long>(static_cast<std::size_t>(p), 10))};
}

/// Max of the members' round times on the group's communicator.
double round_max(const Group& group, double elapsed) {
  double out = 0.0;
  group.comm().allreduce(std::span<const double>(&elapsed, 1),
                         std::span<double>(&out, 1),
                         [](double a, double b) { return a > b ? a : b; });
  return out;
}

std::vector<int> sorted(std::vector<int> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// What the parent saw during a closed-loop run (copied out under `mutex`).
struct RunLog {
  std::vector<std::string> rounds;   ///< One formatted decision per round.
  std::vector<AdaptRecord> ledger;   ///< Parent controller ledger.
  std::vector<int> final_members;    ///< Sorted members at loop exit.
  bool realized_closed = false;
  double realized_gain_s = 0.0;
};

std::string format_decision(const AdaptDecision& d) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "migrate=%d signal=%d sev=%.17g closed=%d gain=%.17g",
                d.migrate ? 1 : 0, static_cast<int>(d.signal), d.severity,
                d.closed_migration ? 1 : 0, d.realized_gain_s);
  return buf;
}

/// The canonical closed-loop scenario: alpha/beta/gamma selected at speed
/// 100 each; beta's machine drops to 5% at t=0.45 mid-run; the divergence
/// trigger fires after two slow rounds, adapt_recon re-measures the members,
/// and adapt_migrate moves the group onto the idle 90-speed spare. The
/// member loop ends on the round that closes the realized gain.
RunLog run_drifting_scenario(int search_threads, mp::Tracer* tracer = nullptr) {
  hnoc::Cluster cluster =
      hnoc::ClusterBuilder()
          .add("alpha", 100.0)
          .add("beta", 100.0, hnoc::LoadProfile({{0.45, 0.05}}))
          .add("gamma", 100.0)
          .add("delta", 90.0)
          .build();
  RuntimeConfig config;
  config.search_threads = search_threads;
  config.adapt.enabled = true;
  config.adapt.threshold = 0.25;
  config.adapt.ewma_alpha = 1.0;
  config.adapt.hysteresis = 2;
  config.adapt.cooldown_s = 5.0;

  Model model = compute_model();
  const std::vector<ParamValue> params = volumes(3);
  RunLog log;
  std::mutex mutex;

  World::Options options;
  options.tracer = tracer;
  World::run_one_per_processor(
      cluster,
      [&](Proc& p) {
        Runtime rt(p, config);
        while (!rt.adapt_quiesced()) {
          std::optional<Group> group = rt.group_create(model, params);
          if (!group) continue;
          int rounds = 0;
          bool done = false;
          while (group && !done) {
            group->comm().barrier();
            const double start = p.clock();
            p.compute(10.0);
            const double measured = round_max(*group, p.clock() - start);
            const AdaptDecision d = rt.adapt_observe(*group, measured);
            rounds += 1;
            if (rt.is_host()) {
              std::lock_guard<std::mutex> lock(mutex);
              log.rounds.push_back(format_decision(d));
              if (d.closed_migration) {
                log.realized_closed = true;
                log.realized_gain_s = d.realized_gain_s;
              }
            }
            if (d.closed_migration || rounds >= 20) {
              done = true;
            } else if (d.migrate) {
              rt.adapt_recon(*group, [](Proc& q) { q.compute(1.0); });
              Runtime::AdaptMigrateOptions opt;
              opt.trigger = d;
              const Runtime::AdaptOutcome out =
                  rt.adapt_migrate(*group, model, params, opt);
              if (!out.member) group.reset();  // released: back to serving
            }
          }
          if (group) {
            if (rt.is_host()) {
              std::lock_guard<std::mutex> lock(mutex);
              log.final_members = sorted(group->members());
              log.ledger = rt.adapt_ledger();
              rt.adapt_quiesce();
            }
            rt.group_free(*group);
          }
        }
        rt.finalize();
      },
      options);
  return log;
}

TEST(AdaptIntegration, DriftingLoadTriggersGuardedMigration) {
  telemetry::metrics().reset();
  mp::Tracer tracer;
  const RunLog log = run_drifting_scenario(/*search_threads=*/1, &tracer);

  // Four clean rounds, the partial round 5, the fully slow round 6 that
  // triggers, and the single post-migration round that closes the gain.
  ASSERT_EQ(log.rounds.size(), 7u);
  EXPECT_NE(log.rounds[5].find("migrate=1"), std::string::npos);

  ASSERT_EQ(log.ledger.size(), 1u);
  const AdaptRecord& rec = log.ledger[0];
  EXPECT_EQ(rec.outcome, AdaptOutcomeKind::kMigrated);
  EXPECT_EQ(rec.signal, AdaptSignal::kDivergence);
  EXPECT_GT(rec.severity, 0.25);
  EXPECT_NEAR(rec.predicted_old_s, 2.0, 1e-9);    // 10 units at speed 5
  EXPECT_NEAR(rec.predicted_new_s, 10.0 / 90.0, 1e-9);
  EXPECT_EQ(sorted(rec.old_members), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sorted(rec.new_members), (std::vector<int>{0, 2, 3}));
  EXPECT_TRUE(rec.has_realized);
  EXPECT_NEAR(rec.realized_gain_s, 2.0 - 10.0 / 90.0, 1e-6);
  EXPECT_TRUE(log.realized_closed);
  EXPECT_GT(log.realized_gain_s, 1.0);

  // The evacuated machine is out of the final roster.
  EXPECT_EQ(log.final_members, (std::vector<int>{0, 2, 3}));

  const auto snap = telemetry::metrics().snapshot();
  // 7 observed rounds plus the drift check of the one adapt_recon.
  EXPECT_DOUBLE_EQ(snap.counter_value("adapt.checks"), 8.0);
  EXPECT_DOUBLE_EQ(snap.counter_value("adapt.triggers"), 1.0);
  EXPECT_DOUBLE_EQ(snap.counter_value("adapt.migrations"), 1.0);
  EXPECT_DOUBLE_EQ(snap.counter_value("adapt.rollbacks"), 0.0);

  int triggers = 0, migrates = 0, rollbacks = 0;
  for (const telemetry::CausalEvent& e : tracer.events()) {
    if (e.kind == telemetry::CausalEvent::Kind::kAdaptTrigger) triggers += 1;
    if (e.kind == telemetry::CausalEvent::Kind::kAdaptMigrate) migrates += 1;
    if (e.kind == telemetry::CausalEvent::Kind::kAdaptRollback) rollbacks += 1;
  }
  EXPECT_EQ(triggers, 1);
  EXPECT_EQ(migrates, 1);
  EXPECT_EQ(rollbacks, 0);
}

TEST(AdaptIntegration, StableClusterNeverMigrates) {
  telemetry::metrics().reset();
  hnoc::Cluster cluster = hnoc::ClusterBuilder()
                              .add("a", 100.0)
                              .add("b", 100.0)
                              .add("c", 100.0)
                              .add("spare", 90.0)
                              .build();
  RuntimeConfig config;
  config.adapt.enabled = true;
  config.adapt.threshold = 0.25;
  config.adapt.hysteresis = 2;

  Model model = compute_model();
  const std::vector<ParamValue> params = volumes(3);
  std::mutex mutex;
  std::vector<AdaptRecord> ledger;
  std::vector<int> members;
  bool any_migrate = false;
  int spare_groups = 0;

  mp::Tracer tracer;
  World::Options options;
  options.tracer = &tracer;
  World::run_one_per_processor(
      cluster,
      [&](Proc& p) {
        Runtime rt(p, config);
        while (!rt.adapt_quiesced()) {
          std::optional<Group> group = rt.group_create(model, params);
          if (!group) continue;
          if (rt.world_comm().rank() == 3) {
            std::lock_guard<std::mutex> lock(mutex);
            spare_groups += 1;
          }
          for (int round = 0; round < 8; ++round) {
            group->comm().barrier();
            const double start = p.clock();
            p.compute(10.0);
            const AdaptDecision d =
                rt.adapt_observe(*group, round_max(*group, p.clock() - start));
            if (d.migrate) {
              std::lock_guard<std::mutex> lock(mutex);
              any_migrate = true;
            }
          }
          if (rt.is_host()) {
            std::lock_guard<std::mutex> lock(mutex);
            ledger = rt.adapt_ledger();
            members = sorted(group->members());
            rt.adapt_quiesce();
          }
          rt.group_free(*group);
        }
        rt.finalize();
      },
      options);

  EXPECT_FALSE(any_migrate);
  EXPECT_TRUE(ledger.empty());
  EXPECT_EQ(members, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(spare_groups, 0);  // the spare was never drafted

  const auto snap = telemetry::metrics().snapshot();
  EXPECT_DOUBLE_EQ(snap.counter_value("adapt.checks"), 8.0);
  EXPECT_DOUBLE_EQ(snap.counter_value("adapt.triggers"), 0.0);
  EXPECT_DOUBLE_EQ(snap.counter_value("adapt.migrations"), 0.0);
  for (const telemetry::CausalEvent& e : tracer.events()) {
    EXPECT_NE(e.kind, telemetry::CausalEvent::Kind::kAdaptTrigger);
    EXPECT_NE(e.kind, telemetry::CausalEvent::Kind::kAdaptMigrate);
    EXPECT_NE(e.kind, telemetry::CausalEvent::Kind::kAdaptRollback);
  }
}

TEST(AdaptIntegration, DecisionSequenceIdenticalAcrossSearchThreads) {
  const RunLog one = run_drifting_scenario(1);
  const RunLog two = run_drifting_scenario(2);
  const RunLog eight = run_drifting_scenario(8);

  EXPECT_EQ(one.rounds, two.rounds);
  EXPECT_EQ(one.rounds, eight.rounds);
  EXPECT_EQ(one.final_members, two.final_members);
  EXPECT_EQ(one.final_members, eight.final_members);

  const auto summarize = [](const RunLog& log) {
    std::string out;
    char buf[256];
    for (const AdaptRecord& r : log.ledger) {
      std::snprintf(buf, sizeof buf, "%lld->%lld %d %d %.17g %.17g %.17g %.17g;",
                    r.group_id, r.new_group_id, static_cast<int>(r.signal),
                    static_cast<int>(r.outcome), r.severity, r.predicted_old_s,
                    r.predicted_new_s, r.realized_gain_s);
      out += buf;
    }
    return out;
  };
  EXPECT_EQ(summarize(one), summarize(two));
  EXPECT_EQ(summarize(one), summarize(eight));
}

/// Ping-pong regression: beta's machine collapses mid-run, the group
/// migrates off it, and the machine then RECOVERS. With a cooldown, the next
/// selection must not draft it straight back; with cooldown 0 (the control)
/// it does — proving the cooldown is what breaks the ping-pong cycle.
bool run_pingpong_scenario(double cooldown_s, std::vector<int>* second_members) {
  hnoc::Cluster cluster =
      hnoc::ClusterBuilder()
          .add("alpha", 100.0)
          .add("beta", 150.0, hnoc::LoadProfile({{0.05, 0.02}, {5.0, 1.0}}))
          .add("gamma", 100.0)
          .add("delta", 95.0)
          .build();
  RuntimeConfig config;
  config.adapt.enabled = true;
  config.adapt.threshold = 0.25;
  config.adapt.ewma_alpha = 1.0;
  config.adapt.hysteresis = 2;
  config.adapt.cooldown_s = cooldown_s;

  Model model = compute_model();
  const std::vector<ParamValue> params = volumes(3);
  std::mutex mutex;
  bool beta_in_second = false;
  second_members->clear();

  World::run_one_per_processor(cluster, [&](Proc& p) {
    Runtime rt(p, config);
    const int wr = rt.world_comm().rank();

    // Phase 1: initial group from base speeds {100, 150, 100, 95} ->
    // {alpha, beta, gamma}. The spare immediately re-enters the rendezvous
    // and is drafted by the migration.
    std::optional<Group> group = rt.group_create(model, params);
    if (wr == 3) {
      EXPECT_FALSE(group.has_value());
      group = rt.group_create(model, params);  // joins the migration
      EXPECT_TRUE(group.has_value());
    } else {
      EXPECT_TRUE(group.has_value());
      // Two rounds on the collapsed machine trip the divergence trigger.
      AdaptDecision d;
      for (int round = 0; round < 2; ++round) {
        group->comm().barrier();
        const double start = p.clock();
        p.compute(10.0);
        d = rt.adapt_observe(*group, round_max(*group, p.clock() - start));
      }
      EXPECT_TRUE(d.migrate);
      rt.adapt_recon(*group, [](Proc& q) { q.compute(1.0); });
      Runtime::AdaptMigrateOptions opt;
      opt.trigger = d;
      const Runtime::AdaptOutcome out = rt.adapt_migrate(*group, model, params, opt);
      EXPECT_TRUE(out.migrated);
      if (wr == 1) {
        EXPECT_FALSE(out.member);  // beta evacuated
        group.reset();
      } else {
        EXPECT_TRUE(out.member);
      }
    }
    if (group) {
      EXPECT_EQ(sorted(group->members()), (std::vector<int>{0, 2, 3}));
      rt.group_free(*group);
      group.reset();
    } else {
      // Evacuated beta: run its clock past the t=5 recovery point.
      p.compute(30.0);
    }

    // Phase 2: beta has recovered; a fresh world recon proves it (measured
    // speed 150 again). Does the next selection draft it back?
    rt.world_comm().barrier();
    rt.recon([](Proc& q) { q.compute(1.0); });
    std::optional<Group> second = rt.group_create(model, params);
    if (wr == 1) {
      std::lock_guard<std::mutex> lock(mutex);
      beta_in_second = second.has_value();
    }
    if (second) {
      if (rt.is_host()) {
        std::lock_guard<std::mutex> lock(mutex);
        *second_members = sorted(second->members());
      }
      rt.group_free(*second);
    }
    rt.finalize();
  });
  return beta_in_second;
}

TEST(AdaptIntegration, DraftCooldownPreventsPingPong) {
  std::vector<int> with_cooldown, without_cooldown;
  // Control first: with no cooldown the recovered machine (fastest in the
  // cluster) bounces straight back into the roster.
  EXPECT_TRUE(run_pingpong_scenario(0.0, &without_cooldown));
  EXPECT_EQ(without_cooldown, (std::vector<int>{0, 1, 2}));
  // With a cooldown the evacuated machine stays barred despite being fast.
  EXPECT_FALSE(run_pingpong_scenario(100.0, &with_cooldown));
  EXPECT_EQ(with_cooldown, (std::vector<int>{0, 2, 3}));
}

TEST(AdaptIntegration, ForcedBadMigrationRollsBackAndArmsBackoff) {
  telemetry::metrics().reset();
  hnoc::Cluster cluster = hnoc::ClusterBuilder()
                              .add("a", 100.0)
                              .add("b", 100.0)
                              .add("c", 100.0)
                              .add("slow", 1.0)
                              .build();
  RuntimeConfig config;
  config.adapt.enabled = true;
  config.adapt.threshold = 0.25;
  config.adapt.ewma_alpha = 1.0;
  config.adapt.hysteresis = 1;
  config.adapt.cooldown_s = 5.0;
  config.adapt.retry_backoff = 2.0;

  Model model = compute_model();
  const std::vector<ParamValue> params = volumes(3);
  std::mutex mutex;
  std::vector<AdaptRecord> ledger;
  bool slow_drafted_durably = false;
  int suppressed_after_rollback = 0;

  mp::Tracer tracer;
  World::Options options;
  options.tracer = &tracer;
  World::run_one_per_processor(
      cluster,
      [&](Proc& p) {
        Runtime rt(p, config);
        const int wr = rt.world_comm().rank();
        if (wr == 3) {
          // The slow spare serves the rendezvous. The bad migration drafts
          // it, the rollback guard evicts it, and its group_create returns
          // empty-handed — it must never durably hold a group.
          while (!rt.adapt_quiesced()) {
            std::optional<Group> g = rt.group_create(model, params);
            if (g) {
              std::lock_guard<std::mutex> lock(mutex);
              slow_drafted_durably = true;
            }
          }
        } else {
          std::optional<Group> group = rt.group_create(model, params);
          EXPECT_TRUE(group.has_value());
          const long long old_id = group->id();

          // Force a roster that prices 100x worse: abstract 2 lands on the
          // speed-1 machine. The gate is bypassed; the guard is not.
          const std::vector<int> bad_roster{0, 1, 3};
          Runtime::AdaptMigrateOptions opt;
          opt.force_roster = &bad_roster;
          opt.trigger.migrate = true;
          opt.trigger.signal = AdaptSignal::kDivergence;
          opt.trigger.severity = 1.0;
          const Runtime::AdaptOutcome out =
              rt.adapt_migrate(*group, model, params, opt);
          EXPECT_TRUE(out.rolled_back);
          EXPECT_FALSE(out.migrated);
          EXPECT_TRUE(out.member);  // everyone is back on the old roster
          EXPECT_TRUE(group.has_value());
          EXPECT_EQ(sorted(group->members()), (std::vector<int>{0, 1, 2}));
          EXPECT_NE(group->id(), old_id);  // restored group, fresh id

          // Backoff: gross violations right after the rollback must be
          // suppressed by the (doubled) cooldown window.
          for (int round = 0; round < 2; ++round) {
            group->comm().barrier();
            p.compute(10.0);
            const AdaptDecision d = rt.adapt_observe(*group, 4.0);
            if (rt.is_host() && d.severity > config.adapt.threshold &&
                !d.migrate) {
              std::lock_guard<std::mutex> lock(mutex);
              suppressed_after_rollback += 1;
            }
            EXPECT_FALSE(d.migrate);
          }
          if (rt.is_host()) {
            std::lock_guard<std::mutex> lock(mutex);
            ledger = rt.adapt_ledger();
            rt.adapt_quiesce();
          }
          rt.group_free(*group);
        }
        rt.finalize();
      },
      options);

  EXPECT_FALSE(slow_drafted_durably);
  EXPECT_EQ(suppressed_after_rollback, 2);
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger[0].outcome, AdaptOutcomeKind::kRolledBack);
  EXPECT_NEAR(ledger[0].predicted_old_s, 0.1, 1e-9);
  EXPECT_EQ(sorted(ledger[0].new_members), (std::vector<int>{0, 1, 2}));

  const auto snap = telemetry::metrics().snapshot();
  EXPECT_DOUBLE_EQ(snap.counter_value("adapt.rollbacks"), 1.0);
  EXPECT_DOUBLE_EQ(snap.counter_value("adapt.migrations"), 0.0);
  bool rollback_event = false;
  for (const telemetry::CausalEvent& e : tracer.events()) {
    if (e.kind == telemetry::CausalEvent::Kind::kAdaptRollback) {
      rollback_event = true;
    }
  }
  EXPECT_TRUE(rollback_event);
}

/// One fixed workload used by the bit-identity runs below: a group on a
/// drifting cluster doing three measured rounds. `call_observe` switches the
/// adapt_observe calls on; with adaptation disabled they must not change the
/// trace by a single event.
std::string run_disabled_trace(const RuntimeConfig& config, bool call_observe,
                               bool expect_enabled) {
  hnoc::Cluster cluster =
      hnoc::ClusterBuilder()
          .add("alpha", 100.0)
          .add("beta", 100.0, hnoc::LoadProfile({{0.2, 0.1}}))
          .add("gamma", 80.0)
          .build();
  Model model = compute_model();
  const std::vector<ParamValue> params = volumes(2);
  mp::Tracer tracer;
  World::Options options;
  options.tracer = &tracer;
  World::run_one_per_processor(
      cluster,
      [&](Proc& p) {
        Runtime rt(p, config);
        EXPECT_EQ(rt.adapt_enabled(), expect_enabled);
        std::optional<Group> group = rt.group_create(model, params);
        if (group) {
          for (int round = 0; round < 3; ++round) {
            group->comm().barrier();
            const double start = p.clock();
            p.compute(10.0);
            const double measured = round_max(*group, p.clock() - start);
            if (call_observe) {
              const AdaptDecision d = rt.adapt_observe(*group, measured);
              EXPECT_FALSE(d.migrate);
              EXPECT_DOUBLE_EQ(d.severity, 0.0);
            }
          }
          rt.group_free(*group);
        }
        rt.finalize();
      },
      options);
  std::ostringstream csv;
  tracer.write_csv(csv);
  // The est_compile / mapper_search diagnostics carry WALL-clock seconds in
  // the units column — run-to-run noise with no virtual-time meaning. Scrub
  // it; every other column (and every other event) must match bit-for-bit.
  std::istringstream lines(csv.str());
  std::string out, line;
  while (std::getline(lines, line)) {
    if (line.rfind("est_compile,", 0) == 0 || line.rfind("mapper_search,", 0) == 0) {
      std::vector<std::string> fields;
      std::string field;
      std::istringstream split(line);
      while (std::getline(split, field, ',')) fields.push_back(field);
      if (fields.size() > 7) fields[7] = "W";
      line.clear();
      for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) line += ',';
        line += fields[i];
      }
    }
    out += line;
    out += '\n';
  }
  return out;
}

TEST(AdaptIntegration, DisabledAdaptIsTraceBitIdentical) {
  RuntimeConfig off;  // adapt.enabled defaults to false
  const std::string with_calls = run_disabled_trace(off, true, false);
  const std::string without_calls = run_disabled_trace(off, false, false);
  EXPECT_EQ(with_calls, without_calls);

  // HMPI_ADAPT=off neutralizes an enabled config the same way.
  RuntimeConfig on;
  on.adapt.enabled = true;
  ::setenv("HMPI_ADAPT", "off", 1);
  const std::string env_off = run_disabled_trace(on, true, false);
  ::unsetenv("HMPI_ADAPT");
  EXPECT_EQ(env_off, with_calls);
}

TEST(AdaptIntegration, QuiesceReleasesServeLoop) {
  hnoc::Cluster cluster =
      hnoc::ClusterBuilder().add("host", 100.0).add("spare", 90.0).build();
  RuntimeConfig config;
  config.adapt.enabled = true;
  Model model = compute_model();
  const std::vector<ParamValue> params = volumes(1);
  std::mutex mutex;
  int spare_iterations = 0;
  bool spare_selected = false;

  World::run_one_per_processor(cluster, [&](Proc& p) {
    Runtime rt(p, config);
    if (rt.is_host()) {
      std::optional<Group> group = rt.group_create(model, params);
      EXPECT_TRUE(group.has_value());
      EXPECT_EQ(group->size(), 1);
      rt.adapt_quiesce();
      rt.group_free(*group);
    } else {
      while (!rt.adapt_quiesced()) {
        std::optional<Group> g = rt.group_create(model, params);
        std::lock_guard<std::mutex> lock(mutex);
        spare_iterations += 1;
        spare_selected = spare_selected || g.has_value();
      }
    }
    EXPECT_TRUE(rt.adapt_quiesced());
    rt.finalize();
  });
  EXPECT_FALSE(spare_selected);
  // 0 when the host quiesces before the spare reaches its first check; at
  // most one nullopt from the host's creation plus one from the quiesce.
  EXPECT_LE(spare_iterations, 2);
}

TEST(AdaptIntegration, GroupMigrateMovesOntoRecoveredMachine) {
  // m2 is 10x degraded until t=1 and measures at 20; after it recovers, a
  // fresh recon and a voluntary group_migrate move the second slot from m1
  // (speed 100) onto m2 (speed 200), with the handoff hook telling every
  // old member where the state goes.
  hnoc::Cluster cluster =
      hnoc::ClusterBuilder()
          .add("m0", 100.0)
          .add("m1", 100.0)
          .add("m2", 200.0, hnoc::LoadProfile({{0.0, 0.1}, {1.0, 1.0}}))
          .build();
  Model model = compute_model();
  const std::vector<ParamValue> params = volumes(2);
  std::mutex mutex;
  std::vector<std::pair<int, std::vector<int>>> handoffs;
  std::vector<int> new_members;
  bool m1_kept = true;

  World::run_one_per_processor(cluster, [&](Proc& p) {
    Runtime rt(p, RuntimeConfig());  // group_migrate needs no adapt policy
    const int wr = rt.world_comm().rank();
    rt.recon([](Proc& q) { q.compute(1.0); });  // m2 measures ~20

    std::optional<Group> group = rt.group_create(model, params);
    if (wr == 2) {
      EXPECT_FALSE(group.has_value());
      p.compute(30.0);  // ride out the degraded window (past t=1)
    } else {
      EXPECT_TRUE(group.has_value());
      p.compute(150.0);  // the old roster works until t>1
    }
    rt.recon([](Proc& q) { q.compute(1.0); });  // m2 now measures ~200

    if (wr == 2) {
      group = rt.group_create(model, params);  // drafted by the migration
      EXPECT_TRUE(group.has_value());
    } else {
      const long long old_id = group->id();
      group = rt.group_migrate(
          *group, model, params,
          [&](int old_rank, const std::vector<int>& members) {
            std::lock_guard<std::mutex> lock(mutex);
            handoffs.emplace_back(old_rank, members);
          });
      if (wr == 1) {
        EXPECT_FALSE(group.has_value());
        std::lock_guard<std::mutex> lock(mutex);
        m1_kept = false;
      } else {
        EXPECT_TRUE(group.has_value());
        EXPECT_NE(group->id(), old_id);
      }
    }
    if (group) {
      if (rt.is_host()) {
        std::lock_guard<std::mutex> lock(mutex);
        new_members = sorted(group->members());
      }
      rt.group_free(*group);
    }
    rt.finalize();
  });

  EXPECT_FALSE(m1_kept);
  EXPECT_EQ(new_members, (std::vector<int>{0, 2}));
  // Both old members (group ranks 0 and 1) saw the handoff, pointing at the
  // new roster.
  ASSERT_EQ(handoffs.size(), 2u);
  std::sort(handoffs.begin(), handoffs.end());
  EXPECT_EQ(handoffs[0].first, 0);
  EXPECT_EQ(handoffs[1].first, 1);
  EXPECT_EQ(sorted(handoffs[0].second), (std::vector<int>{0, 2}));
  EXPECT_EQ(sorted(handoffs[1].second), (std::vector<int>{0, 2}));
}

}  // namespace
}  // namespace hmpi
