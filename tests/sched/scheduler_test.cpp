#include "sched/scheduler.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hnoc/cluster.hpp"
#include "mpsim/trace.hpp"
#include "pmdl/model.hpp"
#include "support/error.hpp"
#include "telemetry/json.hpp"

#include "../scoped_env.hpp"

namespace hmpi::sched {
namespace {

using pmdl::InstanceBuilder;
using pmdl::Model;
using pmdl::ParamValue;
using pmdl::ScheduleSink;

/// Model with two params: per-processor volume array and (ignored here)
/// nothing else — width is the array length.
std::shared_ptr<const Model> flat_model() {
  return std::make_shared<const Model>(Model::from_factory(
      "flat", 1, [](std::span<const ParamValue> params) {
        const auto& volumes = std::get<std::vector<long long>>(params[0]);
        const auto p = static_cast<long long>(volumes.size());
        InstanceBuilder b("flat");
        b.shape({p});
        for (long long a = 0; a < p; ++a) {
          b.node_volume(static_cast<int>(a),
                        static_cast<double>(volumes[static_cast<std::size_t>(a)]));
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
      }));
}

JobSpec job(const std::shared_ptr<const Model>& model, int width,
            long long volume, int priority, double arrival_s,
            const char* name) {
  JobSpec spec;
  spec.model = model;
  spec.params = {pmdl::array(std::vector<long long>(
      static_cast<std::size_t>(width), volume))};
  spec.priority = priority;
  spec.arrival_s = arrival_s;
  spec.name = name;
  return spec;
}

TEST(Scheduler, FifoRunsInArrivalOrderWithExclusiveLeases) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2, 100.0);
  SchedConfig config;
  config.policy = SchedPolicy::kFifo;
  config.slots_per_machine = 4;  // normalised away: kFifo is exclusive
  Scheduler scheduler(cluster, config);
  EXPECT_EQ(scheduler.config().slots_per_machine, 1);
  EXPECT_FALSE(scheduler.config().backfill);
  EXPECT_FALSE(scheduler.config().preempt);

  const auto model = flat_model();
  // Priorities are inverted vs arrival; FIFO must ignore them.
  const JobId a = scheduler.submit(job(model, 2, 1000, 0, 0.0, "a"));
  const JobId b = scheduler.submit(job(model, 2, 1000, 5, 0.1, "b"));
  const JobId c = scheduler.submit(job(model, 2, 1000, 9, 0.2, "c"));
  scheduler.run_until_idle();

  const auto ia = scheduler.poll(a), ib = scheduler.poll(b),
             ic = scheduler.poll(c);
  ASSERT_TRUE(ia && ib && ic);
  EXPECT_EQ(ia->state, JobState::kCompleted);
  EXPECT_LT(ia->start_s, ib->start_s);
  EXPECT_LT(ib->start_s, ic->start_s);
  const SchedStats stats = scheduler.stats();
  EXPECT_EQ(stats.completed, 3);
  EXPECT_EQ(stats.preempted, 0);
  EXPECT_EQ(stats.backfilled, 0);
  EXPECT_GT(stats.makespan_s, 0.0);
}

TEST(Scheduler, PriorityOrdersTheQueueHighestFirst) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(1, 100.0);
  SchedConfig config;
  config.slots_per_machine = 1;
  config.backfill = false;
  config.preempt = false;
  config.aging_weight = 0.0;
  Scheduler scheduler(cluster, config);

  const auto model = flat_model();
  const JobId running = scheduler.submit(job(model, 1, 2000, 0, 0.0, "run"));
  const JobId low = scheduler.submit(job(model, 1, 100, 0, 0.1, "low"));
  const JobId high = scheduler.submit(job(model, 1, 100, 5, 0.2, "high"));
  scheduler.run_until_idle();

  const auto ir = scheduler.poll(running), il = scheduler.poll(low),
             ih = scheduler.poll(high);
  ASSERT_TRUE(ir && il && ih);
  // `high` arrived after `low` but outranks it once `run` finishes.
  EXPECT_LT(ir->start_s, ih->start_s);
  EXPECT_LT(ih->start_s, il->start_s);
}

TEST(Scheduler, AgingLetsAStarvingJobOvertakeFreshHighPriority) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(1, 100.0);
  SchedConfig config;
  config.slots_per_machine = 1;
  config.backfill = false;
  config.preempt = false;
  config.aging_weight = 1.0;  // 1 priority unit per waited second
  Scheduler scheduler(cluster, config);

  const auto model = flat_model();
  scheduler.submit(job(model, 1, 1000, 0, 0.0, "run"));  // ~10 s
  const JobId old_low = scheduler.submit(job(model, 1, 100, 0, 0.1, "old"));
  const JobId fresh_high =
      scheduler.submit(job(model, 1, 100, 5, 9.9, "fresh"));
  scheduler.run_until_idle();

  const auto io = scheduler.poll(old_low), ifr = scheduler.poll(fresh_high);
  ASSERT_TRUE(io && ifr);
  // At t~10 the old job's effective priority is ~0 + 1.0 * 9.9 > 5.
  EXPECT_LT(io->start_s, ifr->start_s);
}

TEST(Scheduler, BackfillSlidesShortJobsPastABlockedHead) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2, 100.0);
  SchedConfig config;
  config.slots_per_machine = 1;
  config.preempt = false;
  config.aging_weight = 0.0;
  Scheduler scheduler(cluster, config);

  const auto model = flat_model();
  // `wide` (high priority) needs both machines while `long` holds one:
  // blocked, it posts a reservation. `shorty` fits on the idle machine and
  // finishes before the reservation, so conservative backfill runs it.
  const JobId long_job = scheduler.submit(job(model, 1, 2000, 1, 0.0, "long"));
  const JobId wide = scheduler.submit(job(model, 2, 500, 5, 0.1, "wide"));
  const JobId shorty = scheduler.submit(job(model, 1, 100, 0, 0.2, "short"));
  scheduler.run_until_idle();

  const auto il = scheduler.poll(long_job), iw = scheduler.poll(wide),
             is = scheduler.poll(shorty);
  ASSERT_TRUE(il && iw && is);
  EXPECT_TRUE(is->backfilled);
  EXPECT_LT(is->start_s, iw->start_s);
  EXPECT_GE(iw->start_s, il->finish_s);  // the head was never delayed
  EXPECT_GE(scheduler.stats().backfilled, 1);
}

/// Whether a short job at queue rank `rank` (the head is rank 1) is
/// backfilled behind a blocked head when the scan covers `depth` jobs. The
/// head needs both machines while a long job holds one; the jobs between it
/// and the candidate need both machines too, so they are scanned but never
/// fit, and the candidate would finish long before the head's reservation.
bool backfilled_at_rank(int depth, int rank) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2, 100.0);
  SchedConfig config;
  config.slots_per_machine = 1;
  config.backfill_depth = depth;
  config.preempt = false;
  config.aging_weight = 0.0;
  Scheduler scheduler(cluster, config);

  const auto model = flat_model();
  scheduler.submit(job(model, 1, 2000, 1, 0.0, "long"));
  scheduler.submit(job(model, 2, 500, 5, 0.1, "head"));
  for (int i = 0; i < rank - 2; ++i) {
    scheduler.submit(job(model, 2, 100, 3, 0.2 + 0.01 * i, "wide"));
  }
  const JobId candidate = scheduler.submit(job(model, 1, 100, 0, 1.0, "short"));
  scheduler.run_until_idle();

  const auto info = scheduler.poll(candidate);
  if (!info.has_value()) {
    ADD_FAILURE() << "candidate job unknown";
    return false;
  }
  EXPECT_EQ(info->state, JobState::kCompleted);
  if (info->backfilled) {
    EXPECT_DOUBLE_EQ(info->start_s, 1.0);  // dispatched on arrival
  }
  return info->backfilled;
}

TEST(Scheduler, BackfillScansExactlyDepthJobsBehindTheHead) {
  for (const int depth : {1, 3, 16}) {
    EXPECT_TRUE(backfilled_at_rank(depth, depth + 1)) << "depth " << depth;
    EXPECT_FALSE(backfilled_at_rank(depth, depth + 2)) << "depth " << depth;
  }
}

TEST(Scheduler, BackfillDepthZeroScansNothing) {
  EXPECT_FALSE(backfilled_at_rank(0, 2));
}

TEST(Scheduler, BackfillDepthIntMaxScansTheWholeQueue) {
  // The window is 1 + depth jobs; at INT_MAX that must not overflow.
  EXPECT_TRUE(backfilled_at_rank(INT_MAX, 2));
  EXPECT_TRUE(backfilled_at_rank(INT_MAX, 20));
}

TEST(Scheduler, ReservationCountsEqualFinishesInIdOrder) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(4, 100.0);
  SchedConfig config;
  config.slots_per_machine = 1;
  config.preempt = false;
  config.aging_weight = 0.0;
  Scheduler scheduler(cluster, config);

  // `one` and `two` wait behind `all`, then dispatch in one pass — `two`
  // first, by priority — and finish at the same time, leaving one machine
  // free. `head` needs two: taking the finishes in id order, `one` alone
  // covers it, so the shadow has exactly two free slots. A long job on the
  // free machine would take one of them, so it must not backfill. (In
  // dispatch order `two` would come first, leaving three slots and room.)
  const auto model = flat_model();
  scheduler.submit(job(model, 4, 100, 9, 0.0, "all"));
  const JobId one = scheduler.submit(job(model, 1, 1000, 0, 0.1, "one"));
  const JobId two = scheduler.submit(job(model, 2, 1000, 5, 0.2, "two"));
  const JobId head = scheduler.submit(job(model, 2, 100, 7, 2.0, "head"));
  const JobId tail = scheduler.submit(job(model, 1, 5000, 0, 2.1, "tail"));
  scheduler.run_until_idle();

  const auto i1 = scheduler.poll(one), i2 = scheduler.poll(two),
             ih = scheduler.poll(head), it = scheduler.poll(tail);
  ASSERT_TRUE(i1 && i2 && ih && it);
  ASSERT_LT(i2->start_s, 2.0);
  ASSERT_EQ(i1->start_s, i2->start_s);
  ASSERT_EQ(i1->finish_s, i2->finish_s);
  EXPECT_FALSE(it->backfilled);
  EXPECT_GE(it->start_s, ih->start_s);
}

TEST(Scheduler, PreemptionRevokesRequeuesAndTraces) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(1, 100.0);
  mp::Tracer tracer;
  SchedConfig config;
  config.slots_per_machine = 1;
  config.backfill = false;
  config.preempt_priority_gap = 1;
  config.aging_weight = 0.0;
  config.tracer = &tracer;
  Scheduler scheduler(cluster, config);

  const auto model = flat_model();
  JobSpec victim_spec = job(model, 1, 2000, 0, 0.0, "victim");
  victim_spec.checkpoint_bytes = 0;  // checkpoints: keeps completed work
  const JobId victim = scheduler.submit(victim_spec);
  const JobId urgent = scheduler.submit(job(model, 1, 100, 5, 5.0, "urgent"));
  scheduler.run_until_idle();

  const auto iv = scheduler.poll(victim), iu = scheduler.poll(urgent);
  ASSERT_TRUE(iv && iu);
  EXPECT_EQ(iv->preemptions, 1);
  EXPECT_EQ(iv->state, JobState::kCompleted);
  EXPECT_EQ(iu->state, JobState::kCompleted);
  EXPECT_LT(iu->finish_s, iv->finish_s);
  EXPECT_EQ(scheduler.stats().preempted, 1);

  int dispatches = 0, preempts = 0;
  using Kind = telemetry::CausalEvent::Kind;
  for (const telemetry::CausalEvent& e : tracer.events()) {
    if (e.kind == Kind::kSchedDispatch) ++dispatches;
    if (e.kind == Kind::kSchedPreempt) {
      ++preempts;
      EXPECT_EQ(telemetry::event_arg(e, "job"), static_cast<double>(victim));
      EXPECT_GT(telemetry::event_arg(e, "progress"), 0.0);
    }
  }
  EXPECT_EQ(dispatches, 3);  // victim, urgent, victim again
  EXPECT_EQ(preempts, 1);
}

TEST(Scheduler, CancelPendingRunningAndCompleted) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(1, 100.0);
  SchedConfig config;
  config.slots_per_machine = 1;
  Scheduler scheduler(cluster, config);

  const auto model = flat_model();
  const JobId first = scheduler.submit(job(model, 1, 1000, 0, 0.0, "first"));
  const JobId queued = scheduler.submit(job(model, 1, 1000, 0, 0.0, "queued"));
  scheduler.step();  // arrival of `first` -> it dispatches
  scheduler.step();  // arrival of `queued` -> pending behind it

  EXPECT_TRUE(scheduler.cancel(queued));
  EXPECT_EQ(scheduler.poll(queued)->state, JobState::kCancelled);
  EXPECT_TRUE(scheduler.cancel(first));  // running: leases revoked
  scheduler.run_until_idle();
  EXPECT_EQ(scheduler.poll(first)->state, JobState::kCancelled);
  EXPECT_FALSE(scheduler.cancel(first));  // already cancelled
  EXPECT_FALSE(scheduler.cancel(12345));  // unknown
  EXPECT_FALSE(scheduler.poll(777).has_value());
  EXPECT_EQ(scheduler.stats().cancelled, 2);
  EXPECT_EQ(scheduler.stats().completed, 0);
}

TEST(Scheduler, SubmitValidatesModelAndFit) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2, 100.0);
  SchedConfig config;
  config.slots_per_machine = 2;
  Scheduler scheduler(cluster, config);

  JobSpec no_model;
  EXPECT_THROW(scheduler.submit(no_model), InvalidArgument);
  const auto model = flat_model();
  // 5 abstract processors can never fit 2 machines x 2 slots.
  EXPECT_THROW(scheduler.submit(job(model, 5, 100, 0, 0.0, "wide")),
               InvalidArgument);
}

TEST(Scheduler, RefreshSpeedsRedirectsPlacement) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2, 100.0);
  SchedConfig config;
  config.slots_per_machine = 1;
  Scheduler scheduler(cluster, config);

  // Recon learned machine 0 is 20x slower than installed.
  scheduler.refresh_speeds({5.0, 100.0});
  EXPECT_DOUBLE_EQ(scheduler.ledger().base_speed(0), 5.0);

  const auto model = flat_model();
  const JobId id = scheduler.submit(job(model, 1, 100, 0, 0.0, "j"));
  scheduler.run_until_idle();
  const auto info = scheduler.poll(id);
  ASSERT_TRUE(info.has_value());
  ASSERT_EQ(info->machines.size(), 1u);
  EXPECT_EQ(info->machines[0], 1);
}

TEST(Scheduler, StatsJsonCarriesTheDocumentedShape) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2, 100.0);
  Scheduler scheduler(cluster, SchedConfig{});
  const auto model = flat_model();
  scheduler.submit(job(model, 1, 100, 0, 0.0, "a"));
  scheduler.submit(job(model, 2, 200, 1, 0.5, "b"));
  scheduler.run_until_idle();

  std::ostringstream os;
  scheduler.stats_json(os);
  std::string error;
  const auto doc = telemetry::parse_json(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const telemetry::JsonValue* sched = doc->find("scheduler");
  ASSERT_NE(sched, nullptr);
  ASSERT_TRUE(sched->is_object());
  for (const char* key :
       {"policy", "machines", "slots_per_machine", "submitted", "completed",
        "makespan_s", "utilization", "mean_wait_s", "jobs"}) {
    EXPECT_NE(sched->find(key), nullptr) << key;
  }
  const telemetry::JsonValue* jobs = sched->find("jobs");
  ASSERT_TRUE(jobs->is_array());
  EXPECT_EQ(jobs->array.size(), 2u);
  EXPECT_NE(jobs->array[0].find("state"), nullptr);
}

TEST(SchedConfig, EnvOverridesApply) {
  {
    ScopedEnv policy("HMPI_SCHED_POLICY", "priority");
    ScopedEnv slots("HMPI_SCHED_SLOTS", "3");
    ScopedEnv backfill("HMPI_SCHED_BACKFILL", "0");
    ScopedEnv aging("HMPI_SCHED_AGING", "0.5");
    SchedConfig base;
    base.policy = SchedPolicy::kFifo;
    const SchedConfig got = sched_config_with_env(base);

    EXPECT_EQ(got.policy, SchedPolicy::kPriority);
    EXPECT_EQ(got.slots_per_machine, 3);
    EXPECT_FALSE(got.backfill);
    EXPECT_DOUBLE_EQ(got.aging_weight, 0.5);
    // Unset vars keep the base values.
    EXPECT_TRUE(got.preempt);
  }
  {
    ScopedEnv policy("HMPI_SCHED_POLICY", "FIFO");
    ScopedEnv depth("HMPI_SCHED_BACKFILL_DEPTH", "0");
    ScopedEnv gap("HMPI_SCHED_PREEMPT_GAP", "-2");
    ScopedEnv aging("HMPI_SCHED_AGING", "1e-3");
    const SchedConfig got = sched_config_with_env(SchedConfig{});
    EXPECT_EQ(got.policy, SchedPolicy::kFifo);
    EXPECT_EQ(got.backfill_depth, 0);
    EXPECT_EQ(got.preempt_priority_gap, -2);
    EXPECT_DOUBLE_EQ(got.aging_weight, 1e-3);
  }
  {
    // Empty values keep the base values too.
    SchedConfig base;
    base.policy = SchedPolicy::kFifo;
    base.slots_per_machine = 5;
    base.backfill = false;
    base.backfill_depth = 3;
    base.preempt = false;
    base.preempt_priority_gap = 7;
    base.aging_weight = 0.25;
    std::vector<std::unique_ptr<ScopedEnv>> empty;
    for (const char* name :
         {"HMPI_SCHED_POLICY", "HMPI_SCHED_SLOTS", "HMPI_SCHED_BACKFILL",
          "HMPI_SCHED_BACKFILL_DEPTH", "HMPI_SCHED_PREEMPT",
          "HMPI_SCHED_PREEMPT_GAP", "HMPI_SCHED_AGING"}) {
      empty.push_back(std::make_unique<ScopedEnv>(name, ""));
    }
    const SchedConfig got = sched_config_with_env(base);
    EXPECT_EQ(got.policy, SchedPolicy::kFifo);
    EXPECT_EQ(got.slots_per_machine, 5);
    EXPECT_FALSE(got.backfill);
    EXPECT_EQ(got.backfill_depth, 3);
    EXPECT_FALSE(got.preempt);
    EXPECT_EQ(got.preempt_priority_gap, 7);
    EXPECT_DOUBLE_EQ(got.aging_weight, 0.25);
  }
  // Every flag spelling, in any case.
  for (const char* on : {"1", "true", "TRUE", "yes", "Yes", "on", "ON"}) {
    ScopedEnv backfill("HMPI_SCHED_BACKFILL", on);
    SchedConfig base;
    base.backfill = false;
    EXPECT_TRUE(sched_config_with_env(base).backfill) << on;
  }
  for (const char* off : {"0", "false", "False", "no", "NO", "off", "Off"}) {
    ScopedEnv backfill("HMPI_SCHED_BACKFILL", off);
    ScopedEnv preempt("HMPI_SCHED_PREEMPT", off);
    const SchedConfig got = sched_config_with_env(SchedConfig{});
    EXPECT_FALSE(got.backfill) << off;
    EXPECT_FALSE(got.preempt) << off;
  }
  // Anything else throws, naming the knob and its accepted spellings.
  struct Bad {
    const char* name;
    const char* value;
    const char* accepted;
  };
  for (const Bad& bad : {
           Bad{"HMPI_SCHED_POLICY", "lifo", "fifo|priority"},
           Bad{"HMPI_SCHED_BACKFILL", "maybe", "1|0|true|false|yes|no|on|off"},
           Bad{"HMPI_SCHED_BACKFILL", "nope", "1|0|true|false|yes|no|on|off"},
           Bad{"HMPI_SCHED_PREEMPT", "2", "1|0|true|false|yes|no|on|off"},
           Bad{"HMPI_SCHED_SLOTS", "0", "whole decimal int >= 1"},
           Bad{"HMPI_SCHED_SLOTS", "2x", "whole decimal int >= 1"},
           Bad{"HMPI_SCHED_SLOTS", " 2", "whole decimal int >= 1"},
           Bad{"HMPI_SCHED_SLOTS", "99999999999", "whole decimal int >= 1"},
           Bad{"HMPI_SCHED_BACKFILL_DEPTH", "abc", "whole decimal int >= 0"},
           Bad{"HMPI_SCHED_BACKFILL_DEPTH", "-1", "whole decimal int >= 0"},
           Bad{"HMPI_SCHED_BACKFILL_DEPTH", "1.5", "whole decimal int >= 0"},
           Bad{"HMPI_SCHED_PREEMPT_GAP", "x", "whole decimal int"},
           Bad{"HMPI_SCHED_AGING", "abc", "finite decimal number >= 0"},
           Bad{"HMPI_SCHED_AGING", "-0.5", "finite decimal number >= 0"},
           Bad{"HMPI_SCHED_AGING", "nan", "finite decimal number >= 0"},
           Bad{"HMPI_SCHED_AGING", "inf", "finite decimal number >= 0"},
           Bad{"HMPI_SCHED_AGING", "0.5s", "finite decimal number >= 0"},
       }) {
    ScopedEnv env(bad.name, bad.value);
    try {
      sched_config_with_env(SchedConfig{});
      ADD_FAILURE() << bad.name << "=" << bad.value << " was accepted";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(bad.name), std::string::npos) << what;
      EXPECT_NE(what.find(bad.accepted), std::string::npos) << what;
    }
  }
}

TEST(SchedConfig, RejectsANonFiniteOrNegativeAgingWeight) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(1, 100.0);
  for (const double weight : {-0.5, std::nan(""), HUGE_VAL}) {
    SchedConfig config;
    config.aging_weight = weight;
    EXPECT_THROW(Scheduler(cluster, config), InvalidArgument) << weight;
  }
}

/// FNV-1a over the bytes of each added value.
class Fnv1a {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Digest of every decision the A13 scheduler makes on the first 300 jobs
/// of A13's trace, each one executed: per job, its start, finish and
/// service times, preemptions, backfill flag, placement and result token.
std::uint64_t a13_decision_digest() {
  const hnoc::Cluster cluster = bench::a13_cluster();
  bench::ArrivalTraceOptions options = bench::a13_trace_options();
  options.jobs = 300;
  SchedConfig config;
  config.policy = SchedPolicy::kPriority;
  config.slots_per_machine = 2;
  config.preempt_priority_gap = 2;
  config.execute = true;
  Scheduler scheduler(cluster, config);
  std::vector<JobId> ids;
  for (JobSpec& spec : bench::make_arrival_trace(options)) {
    ids.push_back(scheduler.submit(std::move(spec)));
  }
  scheduler.run_until_idle();

  Fnv1a digest;
  for (const JobId id : ids) {
    const auto info = scheduler.poll(id);
    EXPECT_EQ(info->state, JobState::kCompleted) << "job " << id;
    digest.add(info->start_s);
    digest.add(info->finish_s);
    digest.add(info->service_s);
    digest.add(info->preemptions);
    digest.add(info->backfilled);
    for (const int machine : info->machines) digest.add(machine);
    digest.add(info->result);
  }
  return digest.value();
}

/// Recorded from the scheduler before its queue ranking became a partial
/// sort over a flat job table, with its executed jobs on the event engine.
constexpr std::uint64_t kA13DecisionDigest = 0x93fb9369380ec428ULL;

TEST(SchedGolden, A13DecisionsMatchThePinnedDigest) {
  EXPECT_EQ(a13_decision_digest(), kA13DecisionDigest);
}

TEST(SchedGolden, ExecutedJobsIgnoreTheThreadEngineVariable) {
  // HMPI_SIM_ENGINE is no longer read: naming the retired thread engine
  // changes nothing.
  ScopedEnv engine("HMPI_SIM_ENGINE", "thread");
  EXPECT_EQ(a13_decision_digest(), kA13DecisionDigest);
}

}  // namespace
}  // namespace hmpi::sched
