#include "sched/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <type_traits>
#include <utility>

#include "mpsim/world.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "telemetry/metrics.hpp"

namespace hmpi::sched {
namespace {

// Virtual waits/turnarounds span milliseconds to days; the default seconds
// buckets stop at 100 s, so the sched histograms get their own ceilings.
std::span<const double> sched_seconds_buckets() {
  static const std::vector<double> buckets{0.1,   0.3,   1.0,    3.0,    10.0,
                                           30.0,  100.0, 300.0,  1000.0, 3000.0,
                                           10000.0, 30000.0, 100000.0};
  return buckets;
}

std::unique_ptr<map::Mapper> make_mapper(const std::string& name) {
  if (name.empty() || name == "greedy") return std::make_unique<map::GreedyMapper>();
  if (name == "swap-refine") return std::make_unique<map::SwapRefineMapper>();
  if (name == "annealing") return std::make_unique<map::AnnealingMapper>();
  if (name == "exhaustive") return std::make_unique<map::ExhaustiveMapper>();
  if (name == "portfolio") return std::make_unique<map::PortfolioMapper>();
  if (name == "beam") return std::make_unique<map::BeamMapper>();
  if (name == "annealing-ws") {
    return std::make_unique<map::WorkStealingAnnealingMapper>();
  }
  throw InvalidArgument("unknown scheduler mapper: " + name);
}

SchedConfig normalize(SchedConfig config) {
  if (config.policy == SchedPolicy::kFifo) {
    // The A13 baseline: slurm-style exclusive nodes, arrival order only.
    config.slots_per_machine = 1;
    config.backfill = false;
    config.preempt = false;
    config.aging_weight = 0.0;
  }
  support::require(config.slots_per_machine >= 1,
                   "scheduler needs at least one slot per machine");
  support::require(config.backfill_depth >= 0, "negative backfill depth");
  // A NaN or infinite weight would break the queue's total order.
  support::require(std::isfinite(config.aging_weight) &&
                       config.aging_weight >= 0.0,
                   "aging weight must be finite and non-negative");
  return config;
}

}  // namespace

const char* policy_name(SchedPolicy policy) {
  switch (policy) {
    case SchedPolicy::kFifo: return "fifo";
    case SchedPolicy::kPriority: return "priority";
  }
  return "?";
}

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kPending: return "pending";
    case JobState::kRunning: return "running";
    case JobState::kCompleted: return "completed";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

SchedConfig sched_config_with_env(SchedConfig base) {
  namespace env = support::env;
  // Indexed by SchedPolicy.
  constexpr const char* kPolicies[] = {"fifo", "priority"};
  constexpr long long kIntMin = std::numeric_limits<int>::min();
  constexpr long long kIntMax = std::numeric_limits<int>::max();
  base.policy = static_cast<SchedPolicy>(env::choice(
      "HMPI_SCHED_POLICY", kPolicies, static_cast<int>(base.policy)));
  base.slots_per_machine = static_cast<int>(
      env::integer("HMPI_SCHED_SLOTS", 1, kIntMax, base.slots_per_machine));
  base.backfill = env::flag("HMPI_SCHED_BACKFILL", base.backfill);
  base.backfill_depth = static_cast<int>(env::integer(
      "HMPI_SCHED_BACKFILL_DEPTH", 0, kIntMax, base.backfill_depth));
  base.preempt = env::flag("HMPI_SCHED_PREEMPT", base.preempt);
  base.preempt_priority_gap = static_cast<int>(env::integer(
      "HMPI_SCHED_PREEMPT_GAP", kIntMin, kIntMax, base.preempt_priority_gap));
  base.aging_weight =
      env::number("HMPI_SCHED_AGING", /*positive=*/false, base.aging_weight);
  return base;
}

Scheduler::Scheduler(const hnoc::Cluster& cluster, SchedConfig config,
                     Partition partition)
    : cluster_(&cluster),
      config_(normalize(std::move(config))),
      ledger_(cluster,
              [&] {
                partition.slots_per_machine = config_.slots_per_machine;
                return std::move(partition);
              }()),
      mapper_(make_mapper(config_.mapper)),
      selector_(mapper_.get(), config_.estimate),
      busy_since_(static_cast<std::size_t>(cluster.size()), -1.0),
      busy_total_s_(static_cast<std::size_t>(cluster.size()), 0.0) {}

map::SearchContext Scheduler::search_context() {
  map::SearchContext context;
  context.cache = &estimate_cache_;
  context.plans = &plan_cache_;
  return context;
}

JobId Scheduler::submit(JobSpec spec) {
  static_assert(std::is_nothrow_move_constructible_v<Record>,
                "growing the job table must move records, not copy them");
  std::lock_guard<std::mutex> lock(mutex_);
  support::require(spec.model != nullptr, "job needs a performance model");

  Record rec;
  rec.instance = spec.model->instantiate(
      std::span<const pmdl::ParamValue>(spec.params));
  const int capacity = static_cast<int>(ledger_.partition().machines.size()) *
                       ledger_.partition().slots_per_machine;
  support::require(rec.instance->size() <= capacity,
                   "job needs more processors than the partition has slots");

  const JobId id = static_cast<JobId>(jobs_.size()) + 1;
  rec.info.id = id;
  rec.info.name = spec.name.empty() ? spec.model->name() : spec.name;
  rec.info.priority = spec.priority;
  rec.info.arrival_s = std::max(spec.arrival_s, now_);
  rec.spec = std::move(spec);

  push_event(Event{.time = rec.info.arrival_s,
                   .type = Event::Type::kArrival,
                   .job = id});
  jobs_.push_back(std::move(rec));

  ++totals_.submitted;
  telemetry::metrics().counter("sched.submitted").add(1);
  return id;
}

std::optional<JobInfo> Scheduler::poll(JobId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!known(id)) return std::nullopt;
  return record(id).info;
}

bool Scheduler::cancel(JobId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!known(id)) return false;
  Record& rec = record(id);
  switch (rec.info.state) {
    case JobState::kCompleted:
    case JobState::kCancelled:
      return false;
    case JobState::kRunning:
      ++rec.generation;  // orphan the in-flight completion event
      stop_running(rec);
      break;
    case JobState::kPending:
      std::erase(pending_, id);
      break;
  }
  rec.info.state = JobState::kCancelled;
  ++totals_.cancelled;
  telemetry::metrics().counter("sched.cancelled").add(1);
  return true;
}

double Scheduler::now() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return now_;
}

std::optional<Reservation> Scheduler::reservation() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reservation_;
}

void Scheduler::refresh_speeds(const std::vector<double>& speeds) {
  std::lock_guard<std::mutex> lock(mutex_);
  ledger_.refresh_base(speeds);
}

bool Scheduler::step() {
  std::lock_guard<std::mutex> lock(mutex_);
  return step_locked();
}

void Scheduler::run_until_idle() {
  std::lock_guard<std::mutex> lock(mutex_);
  while (step_locked()) {
  }
  publish_gauges();
}

bool Scheduler::step_locked() {
  while (!events_.empty()) {
    const Event event = events_.top();
    events_.pop();
    Record& rec = record(event.job);
    if (event.type == Event::Type::kCompletion &&
        (rec.generation != event.generation ||
         rec.info.state != JobState::kRunning)) {
      continue;  // preempted or cancelled since this event was scheduled
    }
    now_ = std::max(now_, event.time);
    if (event.type == Event::Type::kArrival) {
      if (rec.info.state != JobState::kPending) continue;  // cancelled
      pending_.push_back(event.job);
      totals_.queue_depth_peak =
          std::max(totals_.queue_depth_peak, static_cast<int>(pending_.size()));
    } else {
      complete_job(rec);
    }
    schedule_pass();
    return true;
  }
  return false;
}

double Scheduler::effective_priority(const Record& rec) const {
  if (config_.policy == SchedPolicy::kFifo) return 0.0;
  return static_cast<double>(rec.info.priority) +
         config_.aging_weight * (now_ - rec.info.arrival_s);
}

std::vector<JobId> Scheduler::ranked_pending(std::size_t count) const {
  struct Key {
    double priority;
    double arrival_s;
    JobId id;
  };
  std::vector<Key> keys;
  keys.reserve(pending_.size());
  for (const JobId id : pending_) {
    const Record& rec = record(id);
    keys.push_back(Key{effective_priority(rec), rec.info.arrival_s, id});
  }
  // A total order (ids are unique), so this prefix is exactly the prefix a
  // full sort of the queue would give.
  const auto middle = keys.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(count, keys.size()));
  std::partial_sort(keys.begin(), middle, keys.end(),
                    [](const Key& a, const Key& b) {
                      if (a.priority != b.priority) {
                        return a.priority > b.priority;
                      }
                      if (a.arrival_s != b.arrival_s) {
                        return a.arrival_s < b.arrival_s;
                      }
                      return a.id < b.id;
                    });
  std::vector<JobId> order;
  order.reserve(static_cast<std::size_t>(middle - keys.begin()));
  for (auto it = keys.begin(); it != middle; ++it) order.push_back(it->id);
  return order;
}

void Scheduler::schedule_pass() {
  reservation_.reset();
  // A pass reads the queue head and, with backfill on, the backfill_depth
  // jobs behind it — never more, so only that prefix is ranked.
  const std::size_t window =
      1 + (config_.backfill ? static_cast<std::size_t>(config_.backfill_depth)
                            : 0);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    const std::vector<JobId> order = ranked_pending(window);
    if (order.empty()) break;
    Record& head = record(order.front());

    if (try_dispatch(head, /*backfilled=*/false)) {
      progressed = true;
      continue;
    }

    // Head is blocked. Preemption: revoke just enough strictly-lower-
    // priority running work to make it feasible, lowest priority first.
    if (config_.preempt) {
      std::vector<JobId> victims;
      for (const JobId id : running_) {
        const Record& rec = record(id);
        if (rec.info.priority + config_.preempt_priority_gap >
            head.info.priority) {
          continue;
        }
        if (rec.info.preemptions >= config_.max_preemptions_per_job) continue;
        victims.push_back(id);
      }
      std::sort(victims.begin(), victims.end(), [&](JobId a, JobId b) {
        const Record& ra = record(a);
        const Record& rb = record(b);
        if (ra.info.priority != rb.info.priority) {
          return ra.info.priority < rb.info.priority;  // least important first
        }
        if (ra.seg_start_s != rb.seg_start_s) {
          return ra.seg_start_s > rb.seg_start_s;  // least progress lost
        }
        return a > b;
      });
      const int needed = head.instance->size();
      int reclaimable = ledger_.total_free_slots();
      std::size_t take = 0;
      while (take < victims.size() && reclaimable < needed) {
        reclaimable += record(victims[take]).instance->size();
        ++take;
      }
      if (reclaimable >= needed && take > 0) {
        for (std::size_t i = 0; i < take; ++i) preempt_job(record(victims[i]));
        if (try_dispatch(head, /*backfilled=*/false)) {
          progressed = true;
          continue;
        }
      }
    }

    // Still blocked: compute the head's shadow — the completion time at
    // which enough slots are guaranteed free — and reserve it. The running
    // list is in ascending id order, which fixes how the (unstable) sort
    // below orders equal finish times.
    const int needed = head.instance->size();
    struct Finish {
      double time;
      int slots;
    };
    std::vector<Finish> finishes;
    finishes.reserve(running_.size());
    for (const JobId id : running_) {
      const Record& rec = record(id);
      finishes.push_back(Finish{rec.seg_start_s + rec.seg_service_s,
                                rec.instance->size()});
    }
    std::sort(finishes.begin(), finishes.end(),
              [](const Finish& a, const Finish& b) { return a.time < b.time; });
    double shadow_start = now_;
    int shadow_free = ledger_.total_free_slots();
    for (const Finish& f : finishes) {
      if (shadow_free >= needed) break;
      shadow_free += f.slots;
      shadow_start = f.time;
    }
    reservation_ = Reservation{
        .job = head.info.id, .start_s = shadow_start, .slots = needed};

    // Conservative backfill: a lower-priority job may start now only if it
    // cannot delay the reservation — it either finishes before the shadow
    // or leaves the head's slots untouched at shadow time.
    if (config_.backfill) {
      for (std::size_t i = 1; i < order.size(); ++i) {
        Record& rec = record(order[i]);
        if (rec.info.state != JobState::kPending) continue;
        const int p = rec.instance->size();
        if (p > ledger_.total_free_slots()) continue;
        const auto placement =
            selector_.place(*rec.instance, ledger_, search_context());
        if (!placement) continue;
        const double bound = rec.spec.walltime_estimate_s > 0.0
                                 ? rec.spec.walltime_estimate_s
                                 : placement->estimated_s;
        const bool fits_before_shadow =
            now_ + bound <= shadow_start + 1e-12;
        const bool spare_at_shadow = shadow_free - p >= needed;
        if (!fits_before_shadow && !spare_at_shadow) continue;
        if (!fits_before_shadow) shadow_free -= p;
        dispatch(rec, *placement, /*backfilled=*/true);
        ++totals_.backfilled;
        telemetry::metrics().counter("sched.backfilled").add(1);
      }
    }
    break;  // head stays blocked until the next event
  }
  totals_.queue_depth = static_cast<int>(pending_.size());
  telemetry::metrics().gauge("sched.queue_depth").set(totals_.queue_depth);
  telemetry::metrics().gauge("sched.running").set(running_.size());
}

bool Scheduler::try_dispatch(Record& rec, bool backfilled) {
  if (rec.instance->size() > ledger_.total_free_slots()) return false;
  const auto placement =
      selector_.place(*rec.instance, ledger_, search_context());
  if (!placement) return false;
  dispatch(rec, *placement, backfilled);
  return true;
}

void Scheduler::dispatch(Record& rec, const Placement& placement,
                         bool backfilled) {
  std::erase(pending_, rec.info.id);
  running_.insert(
      std::upper_bound(running_.begin(), running_.end(), rec.info.id),
      rec.info.id);
  rec.info.machines = placement.machines;
  for (int machine : placement.machines) note_lease(machine, rec.info.id);

  const bool first_dispatch = rec.info.start_s < 0.0;
  if (first_dispatch) {
    rec.info.start_s = now_;
    const double wait = now_ - rec.info.arrival_s;
    wait_sum_s_ += wait;
    ++waits_observed_;
    telemetry::metrics()
        .histogram("sched.wait_seconds", sched_seconds_buckets())
        .observe(wait);
  }
  rec.info.backfilled = backfilled;
  rec.info.state = JobState::kRunning;

  // Service time: a measured simulated run when executing, else the
  // estimator's prediction on the residual overlay.
  if (config_.execute && rec.spec.body) {
    rec.info.result = execute_body(rec);
  } else {
    rec.full_service_s = std::max(placement.estimated_s, 1e-9);
  }

  double resume_cost = 0.0;
  if (!first_dispatch && rec.spec.checkpoint_bytes >= 0) {
    resume_cost = cluster_->default_link().transfer_time(
        static_cast<double>(rec.spec.checkpoint_bytes));
  }
  rec.seg_start_s = now_;
  rec.seg_service_s = rec.remaining_frac * rec.full_service_s + resume_cost;
  ++rec.generation;
  push_event(Event{.time = now_ + rec.seg_service_s,
                   .type = Event::Type::kCompletion,
                   .job = rec.info.id,
                   .generation = rec.generation});

  ++totals_.dispatched;
  telemetry::metrics().counter("sched.dispatched").add(1);
  record_trace(telemetry::CausalEvent::Kind::kSchedDispatch, rec,
               rec.seg_service_s, 0.0);
}

std::uint64_t Scheduler::execute_body(Record& rec) {
  // The measured run happens on a clone whose machine speeds carry the
  // lease-proportional share this job actually gets (its own leases are
  // already counted, so a sole tenant sees the full base speed).
  const hnoc::Cluster clone = contended_clone(rec.info.machines);
  std::vector<std::uint64_t> tokens(
      static_cast<std::size_t>(rec.instance->size()), 0);
  const JobBody& body = rec.spec.body;
  const auto result = mp::World::run(
      clone, rec.info.machines, [&](mp::Proc& proc) {
        tokens[static_cast<std::size_t>(proc.rank())] = body(proc);
      });
  rec.full_service_s = std::max(result.makespan, 1e-9);
  return tokens.empty() ? 0 : tokens.front();
}

hnoc::Cluster Scheduler::contended_clone(const std::vector<int>& machines) const {
  (void)machines;
  std::vector<hnoc::Processor> processors = cluster_->processors();
  for (int p = 0; p < cluster_->size(); ++p) {
    const int tenants = std::max(1, ledger_.leases(p));
    processors[static_cast<std::size_t>(p)].speed =
        ledger_.base_speed(p) / tenants;
  }
  return hnoc::Cluster(std::move(processors), cluster_->default_link(),
                       cluster_->self_link(), cluster_->link_overrides(),
                       cluster_->two_level_topology());
}

void Scheduler::preempt_job(Record& rec) {
  const double progress =
      rec.seg_service_s > 0.0
          ? std::clamp((now_ - rec.seg_start_s) / rec.seg_service_s, 0.0, 1.0)
          : 1.0;
  ++rec.generation;  // orphan the in-flight completion event
  stop_running(rec);
  rec.info.machines.clear();  // pending again; the next dispatch re-places it
  rec.info.service_s += now_ - rec.seg_start_s;
  if (rec.spec.checkpoint_bytes >= 0) {
    // Checkpointed: completed work survives; only the remainder is owed.
    rec.remaining_frac *= 1.0 - progress;
  } else {
    rec.remaining_frac = 1.0;  // restart from scratch
  }
  rec.info.state = JobState::kPending;
  ++rec.info.preemptions;
  pending_.push_back(rec.info.id);
  ++totals_.preempted;
  telemetry::metrics().counter("sched.preempted").add(1);
  record_trace(telemetry::CausalEvent::Kind::kSchedPreempt, rec,
               rec.seg_service_s, progress);
}

void Scheduler::complete_job(Record& rec) {
  stop_running(rec);
  rec.info.state = JobState::kCompleted;
  rec.info.finish_s = now_;
  rec.info.service_s += rec.seg_service_s;
  last_finish_s_ = std::max(last_finish_s_, now_);
  const double turnaround = now_ - rec.info.arrival_s;
  turnaround_sum_s_ += turnaround;
  ++totals_.completed;
  telemetry::metrics().counter("sched.completed").add(1);
  telemetry::metrics()
      .histogram("sched.turnaround_seconds", sched_seconds_buckets())
      .observe(turnaround);
  telemetry::metrics()
      .histogram("sched.service_seconds", sched_seconds_buckets())
      .observe(rec.info.service_s);
}

void Scheduler::stop_running(Record& rec) {
  // The placement stays in rec.info.machines: completed/cancelled jobs keep
  // reporting where they ran (poll, stats_json); a re-dispatch overwrites it.
  for (int machine : rec.info.machines) note_release(machine, rec.info.id);
  running_.erase(
      std::lower_bound(running_.begin(), running_.end(), rec.info.id));
}

void Scheduler::note_lease(int machine, JobId job) {
  ledger_.lease(machine, job);
  if (ledger_.leases(machine) == 1) {
    busy_since_[static_cast<std::size_t>(machine)] = now_;
  }
}

void Scheduler::note_release(int machine, JobId job) {
  ledger_.release(machine, job);
  if (ledger_.leases(machine) == 0) {
    auto& since = busy_since_[static_cast<std::size_t>(machine)];
    busy_total_s_[static_cast<std::size_t>(machine)] += now_ - since;
    since = -1.0;
  }
}

double Scheduler::busy_seconds_closed_at(double t) const {
  double total = 0.0;
  for (std::size_t p = 0; p < busy_total_s_.size(); ++p) {
    total += busy_total_s_[p];
    if (busy_since_[p] >= 0.0) total += t - busy_since_[p];
  }
  return total;
}

void Scheduler::push_event(Event event) {
  event.seq = next_seq_++;
  events_.push(event);
}

void Scheduler::record_trace(telemetry::CausalEvent::Kind kind,
                             const Record& rec, double predicted_s,
                             double progress) const {
  if (config_.tracer == nullptr) return;
  // The scheduler is no simulated process: rank and machine stay -1. The
  // CSV reads the priority from peer, the processors from tag, the job from
  // bytes and the predicted segment from units; the progress rides in t1.
  telemetry::CausalEvent event;
  event.kind = kind;
  event.peer = rec.info.priority;
  event.tag = rec.instance->size();
  event.bytes = static_cast<std::uint64_t>(rec.info.id);
  event.t0 = now_;
  event.t1 = progress;
  event.value = predicted_s;
  config_.tracer->host_log()->record(0, event);
}

SchedStats Scheduler::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SchedStats out = totals_;
  out.queue_depth = static_cast<int>(pending_.size());
  out.running = static_cast<int>(running_.size());
  out.now_s = now_;
  out.makespan_s = last_finish_s_;
  const int machines = static_cast<int>(ledger_.partition().machines.size());
  if (last_finish_s_ > 0.0 && machines > 0) {
    out.utilization =
        busy_seconds_closed_at(now_) / (machines * last_finish_s_);
    out.throughput_jobs_per_s =
        static_cast<double>(totals_.completed) / last_finish_s_;
  }
  if (totals_.completed > 0) {
    out.mean_turnaround_s =
        turnaround_sum_s_ / static_cast<double>(totals_.completed);
  }
  if (waits_observed_ > 0) {
    out.mean_wait_s = wait_sum_s_ / static_cast<double>(waits_observed_);
  }
  return out;
}

void Scheduler::publish_gauges() {
  auto& registry = telemetry::metrics();
  registry.gauge("sched.queue_depth").set(pending_.size());
  registry.gauge("sched.queue_depth_peak").set(totals_.queue_depth_peak);
  registry.gauge("sched.running").set(running_.size());
  registry.gauge("sched.makespan_s").set(last_finish_s_);
  const int machines = static_cast<int>(ledger_.partition().machines.size());
  if (last_finish_s_ > 0.0 && machines > 0) {
    registry.gauge("sched.utilization")
        .set(busy_seconds_closed_at(now_) / (machines * last_finish_s_));
    registry.gauge("sched.throughput_jobs_per_s")
        .set(static_cast<double>(totals_.completed) / last_finish_s_);
  }
}

void Scheduler::stats_json(std::ostream& os) const {
  const SchedStats s = stats();
  std::lock_guard<std::mutex> lock(mutex_);
  os << "{\"scheduler\": {"
     << "\"policy\": \"" << policy_name(config_.policy) << "\", "
     << "\"machines\": " << ledger_.partition().machines.size() << ", "
     << "\"slots_per_machine\": " << ledger_.partition().slots_per_machine
     << ", "
     << "\"submitted\": " << s.submitted << ", "
     << "\"dispatched\": " << s.dispatched << ", "
     << "\"completed\": " << s.completed << ", "
     << "\"preempted\": " << s.preempted << ", "
     << "\"backfilled\": " << s.backfilled << ", "
     << "\"cancelled\": " << s.cancelled << ", "
     << "\"queue_depth\": " << s.queue_depth << ", "
     << "\"running\": " << s.running << ", "
     << "\"now_s\": " << s.now_s << ", "
     << "\"makespan_s\": " << s.makespan_s << ", "
     << "\"utilization\": " << s.utilization << ", "
     << "\"mean_wait_s\": " << s.mean_wait_s << ", "
     << "\"mean_turnaround_s\": " << s.mean_turnaround_s << ", "
     << "\"throughput_jobs_per_s\": " << s.throughput_jobs_per_s << ", "
     << "\"jobs\": [";
  bool first = true;
  for (const Record& rec : jobs_) {
    if (!first) os << ", ";
    first = false;
    os << "{\"id\": " << rec.info.id << ", \"name\": \"" << rec.info.name
       << "\", \"state\": \"" << job_state_name(rec.info.state)
       << "\", \"priority\": " << rec.info.priority
       << ", \"arrival_s\": " << rec.info.arrival_s
       << ", \"start_s\": " << rec.info.start_s
       << ", \"finish_s\": " << rec.info.finish_s
       << ", \"service_s\": " << rec.info.service_s
       << ", \"preemptions\": " << rec.info.preemptions
       << ", \"backfilled\": " << (rec.info.backfilled ? "true" : "false")
       << ", \"result\": " << rec.info.result << "}";
  }
  os << "]}}";
}

std::uint64_t Scheduler::uncontended_run(const hnoc::Cluster& cluster,
                                         const JobSpec& spec) {
  if (!spec.body) return 0;
  support::require(spec.model != nullptr, "job needs a performance model");
  const pmdl::ModelInstance instance = spec.model->instantiate(
      std::span<const pmdl::ParamValue>(spec.params));

  // Idle-cluster placement: the same selection the scheduler would make on
  // an empty ledger (full base speeds, every slot free).
  CapacityLedger ledger(cluster, Partition{});
  Selector selector(nullptr, est::EstimateOptions{});
  const auto placement =
      selector.place(instance, ledger, map::SearchContext{});
  support::require(placement.has_value(),
                   "job does not fit the cluster even when idle");

  std::vector<std::uint64_t> tokens(
      static_cast<std::size_t>(instance.size()), 0);
  mp::World::run(cluster, placement->machines, [&](mp::Proc& proc) {
    tokens[static_cast<std::size_t>(proc.rank())] = spec.body(proc);
  });
  return tokens.front();
}

}  // namespace hmpi::sched
