// Paper-style HMPI interface.
//
// The paper presents HMPI as C functions (HMPI_Init, HMPI_Recon,
// HMPI_Group_create, ...). This header provides those spellings over the
// C++ runtime so that application code can read like the paper's Figures 5
// and 8. The functions operate on a per-process current runtime: each
// simulated process calls HMPI_Init first, every other call implicitly uses
// that process's runtime, and HMPI_Finalize tears it down.
//
// The C++ API (hmpi::Runtime) remains the primary interface; this layer is a
// thin veneer for familiarity.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string_view>

#include "hmpi/runtime.hpp"

namespace hmpi::capi {

/// The per-process current runtime (set by HMPI_Init).
Runtime* current();

}  // namespace hmpi::capi

/// Opaque group handle, as in the paper.
using HMPI_Group = std::optional<hmpi::Group>;

/// HMPI_Init: binds this simulated process to a fresh runtime. Collective.
void HMPI_Init(hmpi::mp::Proc& proc, hmpi::RuntimeConfig config = hmpi::RuntimeConfig());

/// HMPI_Finalize: collective; destroys this process's runtime. Every HMPI
/// routine that needs the runtime, HMPI_Init included, then throws
/// RuntimeError naming HMPI_Finalize.
void HMPI_Finalize(int exitcode);

/// HMPI_Is_host / HMPI_Is_free / HMPI_Is_member.
bool HMPI_Is_host();
bool HMPI_Is_free();
bool HMPI_Is_member(const HMPI_Group& gid);

/// HMPI_COMM_WORLD accessor (the paper's predefined communication universe).
hmpi::mp::Comm HMPI_Comm_world();

/// HMPI_Recon: refreshes processor speed estimates with a benchmark.
void HMPI_Recon(const std::function<void(hmpi::mp::Proc&)>& benchmark);

/// HMPI_Recon with a failure-detection policy: each benchmark attempt gets a
/// virtual-time budget of `timeout_s` (growing by `backoff` per retry, up to
/// `max_attempts` attempts); a processor that exhausts every attempt is
/// marked suspect and skipped by group-member selection until a later
/// successful recon (docs/faults.md).
void HMPI_Recon_with_timeout(const std::function<void(hmpi::mp::Proc&)>& benchmark,
                             double timeout_s, int max_attempts = 1,
                             double backoff = 2.0);

/// HMPI_Timeof: predicted execution time without running the algorithm.
double HMPI_Timeof(const hmpi::pmdl::Model& perf_model,
                   std::span<const hmpi::pmdl::ParamValue> model_parameters);

/// HMPI_Timeof_batch: prices every parameter set against one model in a
/// single call — the model is compiled once and the candidate/network
/// snapshot is shared, so sweeping N problem sizes costs far less than N
/// HMPI_Timeof calls. Entry i is bit-identical to HMPI_Timeof(perf_model,
/// parameter_sets[i]) made at the same instant. Local operation.
std::vector<double> HMPI_Timeof_batch(
    const hmpi::pmdl::Model& perf_model,
    std::span<const std::vector<hmpi::pmdl::ParamValue>> parameter_sets);

/// HMPI_Group_create: fills `gid` for selected members (empty otherwise).
void HMPI_Group_create(HMPI_Group* gid, const hmpi::pmdl::Model& perf_model,
                       std::span<const hmpi::pmdl::ParamValue> model_parameters);

/// HMPI_Group_free: collective over the group's members.
void HMPI_Group_free(HMPI_Group* gid);

/// HMPI_Group_is_degraded: 1 when the group was created in degraded mode
/// (dead ranks excluded or suspect processors present), 0 otherwise.
int HMPI_Group_is_degraded(const HMPI_Group& gid);

/// HMPI_Group_degraded_delta: predicted extra execution time (seconds) of
/// the degraded group over the one a healthy network would have produced;
/// 0 for a non-degraded group.
double HMPI_Group_degraded_delta(const HMPI_Group& gid);

/// HMPI_Group_fail: abandons a group whose member died, without the
/// group_free barrier; revokes its communicator so blocked survivors unwind.
void HMPI_Group_fail(HMPI_Group* gid);

/// HMPI_Group_respawn: rebuilds the group after member death (collective
/// over the survivors and all free processes). On return `*gid` is the new
/// group for selected processes and empty for the rest.
void HMPI_Group_respawn(HMPI_Group* gid, const hmpi::pmdl::Model& perf_model,
                        std::span<const hmpi::pmdl::ParamValue> model_parameters);

/// HMPI_Group_migrate: voluntary live migration — re-selects the roster
/// from the members plus the free pool at current speed estimates and moves
/// the group there (collective over the members, all alive, and all free
/// processes). On return `*gid` is the new group for selected processes and
/// empty for released ones (docs/adaptation.md).
void HMPI_Group_migrate(HMPI_Group* gid, const hmpi::pmdl::Model& perf_model,
                        std::span<const hmpi::pmdl::ParamValue> model_parameters);

// --- closed-loop adaptation (docs/adaptation.md) ----------------------------

/// HMPI_Adapt_enabled: 1 when the adaptation policy is active (config or
/// HMPI_ADAPT environment override), else 0.
int HMPI_Adapt_enabled();

/// HMPI_Adapt_observe: feeds one measured round of `gid` into the
/// adaptation controller; returns 1 when the (parent-decided, broadcast)
/// verdict asks for HMPI_Adapt_migrate, else 0. Collective over the
/// members when adaptation is enabled; a local no-op returning 0 when
/// disabled. `severity`, when non-null, receives the smoothed violation.
int HMPI_Adapt_observe(const HMPI_Group& gid, double measured_s,
                       double* severity = nullptr);

/// HMPI_Adapt_migrate: prices a re-mapping of `gid` and migrates when the
/// predicted gain clears the respawn + state-transfer cost (rolling back a
/// move that priced worse). Returns 1 if this process is a member of the
/// resulting group, else 0 (it was released to the free pool and should
/// keep serving HMPI_Group_create). Collective like group_migrate.
int HMPI_Adapt_migrate(HMPI_Group* gid, const hmpi::pmdl::Model& perf_model,
                       std::span<const hmpi::pmdl::ParamValue> model_parameters,
                       long long state_bytes = 0);

/// HMPI_Adapt_quiesce: releases every process waiting in the group-creation
/// rendezvous; their pending/future HMPI_Group_create calls return empty.
void HMPI_Adapt_quiesce();

/// HMPI_Adapt_quiesced: 1 after any process called HMPI_Adapt_quiesce.
int HMPI_Adapt_quiesced();

/// HMPI_Adapt_ledger_json: writes this process's adaptation decision ledger
/// as `{"adaptations": [...]}` (the group parent's is the canonical one).
void HMPI_Adapt_ledger_json(std::ostream& os);

/// HMPI_Group_rank / HMPI_Group_size.
int HMPI_Group_rank(const HMPI_Group& gid);
int HMPI_Group_size(const HMPI_Group& gid);

/// HMPI_Get_comm: the MPI communicator of the group (local operation).
const hmpi::mp::Comm* HMPI_Get_comm(const HMPI_Group& gid);

/// HMPI_Group_topology: extents of the model's processor arrangement.
std::vector<long long> HMPI_Group_topology(const HMPI_Group& gid);

/// HMPI_Group_coordof: coordinates of a group rank in that arrangement.
std::vector<long long> HMPI_Group_coordof(const HMPI_Group& gid, int rank);

/// HMPI_Group_performances: speed estimates of the members, by group rank.
std::vector<double> HMPI_Group_performances(const HMPI_Group& gid);

/// HMPI_Get_processors_info: per-machine name/speed/hosted-ranks view.
std::vector<hmpi::Runtime::ProcessorInfo> HMPI_Get_processors_info();

/// HMPI_Get_mapper_stats: cost of the most recent HMPI_Timeof /
/// HMPI_Group_create selection on this process (estimator evaluations,
/// cache hits/misses, wall seconds, worker threads). Zeroes before the
/// first search. Local operation.
hmpi::map::SearchStats HMPI_Get_mapper_stats();

/// HMPI_Get_estimator_stats: cumulative estimator accounting on this
/// process — world-shared plan-cache compiles/hits, and the kernel
/// evaluations summed over every search this process drove
/// (docs/estimator.md). Local operation.
hmpi::Runtime::EstimatorStats HMPI_Get_estimator_stats();

// --- collective algorithm selection (docs/collectives.md) -------------------

/// HMPI_Coll_set_policy: pins the algorithm of one collective operation in
/// the world's policy ("binomial", "ring", ...; "auto" returns the op to
/// cost-model selection). Returns 0 on success, -1 when the op or the
/// algorithm name for it is unknown. Takes effect for subsequent
/// collectives on every process; call at a quiescent point.
int HMPI_Coll_set_policy(hmpi::coll::CollOp op, std::string_view algorithm);

/// HMPI_Coll_get_selection: the algorithm the runtime would run for `op`
/// over the whole world with `bytes` of payload, as a stable name, and —
/// when `predicted_s` is non-null — the cost model's predicted virtual
/// duration (negative when a pin decides the op). Local operation;
/// an unknown op throws InvalidArgument naming its value.
std::string_view HMPI_Coll_get_selection(hmpi::coll::CollOp op,
                                         std::size_t bytes,
                                         double* predicted_s = nullptr);

// --- telemetry (docs/observability.md) --------------------------------------

/// HMPI_Group_observed: reports the measured execution time of the algorithm
/// `gid` was created for (over `runs` repetitions), closing the group's
/// prediction-ledger entry. Call before HMPI_Group_free. Local operation.
void HMPI_Group_observed(const HMPI_Group& gid, double measured_s, int runs = 1);

/// HMPI_Metrics_dump: writes the process-wide metrics registry as JSON.
void HMPI_Metrics_dump(std::ostream& os);

/// HMPI_Trace_export_json: writes the combined Chrome `trace_event` JSON
/// (telemetry spans + the world tracer's virtual-time events, when a tracer
/// is attached, + causal send->recv flow arrows). Loads directly in
/// Perfetto / chrome://tracing.
void HMPI_Trace_export_json(std::ostream& os);

/// HMPI_Critical_path_json: writes the `{"critical_path": {...}}` report of
/// the run's causal log — path segments, per-machine / per-link / per-
/// collective blame (docs/observability.md; read by tools/hmpiprof). Local
/// operation; the canonical report is the host's.
void HMPI_Critical_path_json(std::ostream& os);

/// HMPI_Blame_top: the top `k` machines and links by critical-path seconds,
/// most-blamed first. Local operation.
std::vector<hmpi::Runtime::BlameEntry> HMPI_Blame_top(int k);

/// HMPI_Prediction_error: mean relative error |predicted - measured| /
/// measured over the prediction ledger's closed samples for `model_name`
/// (all models when empty). NaN when no sample matches.
double HMPI_Prediction_error(std::string_view model_name = {});

// --- scheduler service (docs/scheduler.md) ----------------------------------

/// HMPI_Sched_submit: enqueues a job on the world-shared hmpictld scheduler
/// service (created on first use from RuntimeConfig::sched + the
/// HMPI_SCHED_* env overrides) and returns its job id. The scheduler runs
/// on its own virtual timeline; advance it with HMPI_Sched_advance. Any
/// process may submit — the service is shared, so ids are world-unique.
hmpi::sched::JobId HMPI_Sched_submit(hmpi::sched::JobSpec spec);

/// HMPI_Sched_poll: status of a submitted job; empty for an unknown id.
std::optional<hmpi::sched::JobInfo> HMPI_Sched_poll(hmpi::sched::JobId job);

/// HMPI_Sched_cancel: cancels a pending or running job. Returns 1 on
/// success, 0 when the id is unknown or the job already completed.
int HMPI_Sched_cancel(hmpi::sched::JobId job);

/// HMPI_Sched_advance: drains the scheduler's event heap — every submitted
/// job arrives, dispatches, and completes — and publishes the sched.*
/// gauges. Deterministic: the virtual timeline depends only on the
/// submitted specs and the speed estimates, never on which process drains.
void HMPI_Sched_advance();

/// HMPI_Sched_stats: aggregate scheduler accounting (queue depths,
/// makespan, utilization, mean wait/turnaround). Local operation.
hmpi::sched::SchedStats HMPI_Sched_stats();

/// HMPI_Sched_stats_json: writes the `{"scheduler": {...}}` summary +
/// per-job records document that tools/telemetry_check validates.
void HMPI_Sched_stats_json(std::ostream& os);
