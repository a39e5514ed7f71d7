#include "hmpi/hmpi_c.hpp"

#include "support/error.hpp"
#include "support/process_local.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prediction.hpp"

namespace hmpi::capi {
namespace {

// The per-simulated-process Runtime. Process-local (not thread_local): the
// process fibers share one host thread, and each must see its own Runtime.
constexpr char kRuntimeKey = 0;
// Set by HMPI_Finalize: no routine, HMPI_Init included, may follow it.
constexpr char kFinalizedKey = 0;

std::shared_ptr<void>& runtime_slot() {
  return support::process_local_slot(&kRuntimeKey);
}

bool finalized() {
  return support::process_local_slot(&kFinalizedKey) != nullptr;
}

}  // namespace

Runtime* current() { return static_cast<Runtime*>(runtime_slot().get()); }

namespace detail {

Runtime& require_runtime() {
  Runtime* runtime = current();
  if (runtime == nullptr) {
    throw RuntimeError(finalized() ? "HMPI routine called after HMPI_Finalize"
                                   : "HMPI routine called before HMPI_Init");
  }
  return *runtime;
}

void init(mp::Proc& proc, RuntimeConfig config) {
  if (finalized()) throw RuntimeError("HMPI_Init called after HMPI_Finalize");
  if (runtime_slot() != nullptr) {
    throw RuntimeError("HMPI_Init called twice on the same process");
  }
  // Construct before storing: the Runtime constructor opens spans and may
  // touch other process-local slots, which can rehash the table and
  // invalidate a slot reference held across it.
  auto runtime = std::make_shared<Runtime>(proc, std::move(config));
  runtime_slot() = std::move(runtime);
}

void finalize(int exitcode) {
  require_runtime().finalize(exitcode);
  runtime_slot().reset();
  support::process_local_slot(&kFinalizedKey) = std::make_shared<bool>(true);
}

}  // namespace detail
}  // namespace hmpi::capi

void HMPI_Init(hmpi::mp::Proc& proc, hmpi::RuntimeConfig config) {
  hmpi::capi::detail::init(proc, std::move(config));
}

void HMPI_Finalize(int exitcode) { hmpi::capi::detail::finalize(exitcode); }

bool HMPI_Is_host() { return hmpi::capi::detail::require_runtime().is_host(); }

bool HMPI_Is_free() { return hmpi::capi::detail::require_runtime().is_free(); }

bool HMPI_Is_member(const HMPI_Group& gid) {
  return gid.has_value() && gid->valid();
}

hmpi::mp::Comm HMPI_Comm_world() {
  return hmpi::capi::detail::require_runtime().world_comm();
}

void HMPI_Recon(const std::function<void(hmpi::mp::Proc&)>& benchmark) {
  hmpi::capi::detail::require_runtime().recon(benchmark);
}

void HMPI_Recon_with_timeout(const std::function<void(hmpi::mp::Proc&)>& benchmark,
                             double timeout_s, int max_attempts,
                             double backoff) {
  hmpi::RetryPolicy policy;
  policy.timeout_s = timeout_s;
  policy.max_attempts = max_attempts;
  policy.backoff = backoff;
  hmpi::capi::detail::require_runtime().recon(benchmark, policy);
}

double HMPI_Timeof(const hmpi::pmdl::Model& perf_model,
                   std::span<const hmpi::pmdl::ParamValue> model_parameters) {
  return hmpi::capi::detail::require_runtime().timeof(perf_model,
                                                      model_parameters);
}

std::vector<double> HMPI_Timeof_batch(
    const hmpi::pmdl::Model& perf_model,
    std::span<const std::vector<hmpi::pmdl::ParamValue>> parameter_sets) {
  return hmpi::capi::detail::require_runtime().timeof_batch(perf_model,
                                                            parameter_sets);
}

void HMPI_Group_create(HMPI_Group* gid, const hmpi::pmdl::Model& perf_model,
                       std::span<const hmpi::pmdl::ParamValue> model_parameters) {
  hmpi::support::require(gid != nullptr, "HMPI_Group_create: gid must not be null");
  *gid = hmpi::capi::detail::require_runtime().group_create(perf_model,
                                                            model_parameters);
}

void HMPI_Group_free(HMPI_Group* gid) {
  hmpi::support::require(gid != nullptr && gid->has_value(),
                         "HMPI_Group_free: not a live group");
  hmpi::capi::detail::require_runtime().group_free(**gid);
  gid->reset();
}

int HMPI_Group_is_degraded(const HMPI_Group& gid) {
  hmpi::support::require(gid.has_value(),
                         "HMPI_Group_is_degraded: not a live group");
  return gid->degraded() ? 1 : 0;
}

double HMPI_Group_degraded_delta(const HMPI_Group& gid) {
  hmpi::support::require(gid.has_value(),
                         "HMPI_Group_degraded_delta: not a live group");
  return gid->degraded_delta();
}

void HMPI_Group_fail(HMPI_Group* gid) {
  hmpi::support::require(gid != nullptr && gid->has_value(),
                         "HMPI_Group_fail: not a live group");
  hmpi::capi::detail::require_runtime().group_fail(**gid);
  gid->reset();
}

void HMPI_Group_respawn(HMPI_Group* gid, const hmpi::pmdl::Model& perf_model,
                        std::span<const hmpi::pmdl::ParamValue> model_parameters) {
  hmpi::support::require(gid != nullptr && gid->has_value(),
                         "HMPI_Group_respawn: not a live group");
  *gid = hmpi::capi::detail::require_runtime().group_respawn(
      **gid, perf_model, model_parameters);
}

void HMPI_Group_migrate(HMPI_Group* gid, const hmpi::pmdl::Model& perf_model,
                        std::span<const hmpi::pmdl::ParamValue> model_parameters) {
  hmpi::support::require(gid != nullptr && gid->has_value(),
                         "HMPI_Group_migrate: not a live group");
  *gid = hmpi::capi::detail::require_runtime().group_migrate(
      **gid, perf_model, model_parameters);
}

int HMPI_Adapt_enabled() {
  return hmpi::capi::detail::require_runtime().adapt_enabled() ? 1 : 0;
}

int HMPI_Adapt_observe(const HMPI_Group& gid, double measured_s,
                       double* severity) {
  hmpi::support::require(gid.has_value(),
                         "HMPI_Adapt_observe: not a live group");
  const hmpi::adapt::AdaptDecision decision =
      hmpi::capi::detail::require_runtime().adapt_observe(*gid, measured_s);
  if (severity != nullptr) *severity = decision.severity;
  return decision.migrate ? 1 : 0;
}

int HMPI_Adapt_migrate(HMPI_Group* gid, const hmpi::pmdl::Model& perf_model,
                       std::span<const hmpi::pmdl::ParamValue> model_parameters,
                       long long state_bytes) {
  hmpi::support::require(gid != nullptr && gid->has_value(),
                         "HMPI_Adapt_migrate: not a live group");
  hmpi::Runtime::AdaptMigrateOptions options;
  options.state_bytes = state_bytes;
  const hmpi::Runtime::AdaptOutcome outcome =
      hmpi::capi::detail::require_runtime().adapt_migrate(
          **gid, perf_model, model_parameters, options);
  if (!outcome.member) gid->reset();
  return outcome.member ? 1 : 0;
}

void HMPI_Adapt_quiesce() {
  hmpi::capi::detail::require_runtime().adapt_quiesce();
}

int HMPI_Adapt_quiesced() {
  return hmpi::capi::detail::require_runtime().adapt_quiesced() ? 1 : 0;
}

void HMPI_Adapt_ledger_json(std::ostream& os) {
  hmpi::capi::detail::require_runtime().adapt_write_ledger_json(os);
}

int HMPI_Group_rank(const HMPI_Group& gid) {
  hmpi::support::require(gid.has_value(), "HMPI_Group_rank: not a live group");
  return gid->rank();
}

int HMPI_Group_size(const HMPI_Group& gid) {
  hmpi::support::require(gid.has_value(), "HMPI_Group_size: not a live group");
  return gid->size();
}

const hmpi::mp::Comm* HMPI_Get_comm(const HMPI_Group& gid) {
  hmpi::support::require(gid.has_value(), "HMPI_Get_comm: not a live group");
  return &gid->comm();
}

std::vector<long long> HMPI_Group_topology(const HMPI_Group& gid) {
  hmpi::support::require(gid.has_value(), "HMPI_Group_topology: not a live group");
  return gid->shape();
}

std::vector<long long> HMPI_Group_coordof(const HMPI_Group& gid, int rank) {
  hmpi::support::require(gid.has_value(), "HMPI_Group_coordof: not a live group");
  return gid->coordinates_of(rank);
}

std::vector<double> HMPI_Group_performances(const HMPI_Group& gid) {
  hmpi::support::require(gid.has_value(),
                         "HMPI_Group_performances: not a live group");
  return hmpi::capi::detail::require_runtime().group_performances(*gid);
}

std::vector<hmpi::Runtime::ProcessorInfo> HMPI_Get_processors_info() {
  return hmpi::capi::detail::require_runtime().processors_info();
}

hmpi::map::SearchStats HMPI_Get_mapper_stats() {
  return hmpi::capi::detail::require_runtime().last_search_stats();
}

hmpi::Runtime::EstimatorStats HMPI_Get_estimator_stats() {
  return hmpi::capi::detail::require_runtime().estimator_stats();
}

int HMPI_Coll_set_policy(hmpi::coll::CollOp op, std::string_view algorithm) {
  if (static_cast<int>(op) < 0 ||
      static_cast<int>(op) >= hmpi::coll::kNumCollOps) {
    return -1;
  }
  const int algo = hmpi::coll::algo_from_name(op, std::string(algorithm));
  if (algo < 0) return -1;
  hmpi::Runtime& rt = hmpi::capi::detail::require_runtime();
  hmpi::coll::CollPolicy policy = rt.coll_policy();
  policy.set_choice(op, algo);
  rt.coll_set_policy(policy);
  return 0;
}

std::string_view HMPI_Coll_get_selection(hmpi::coll::CollOp op,
                                         std::size_t bytes,
                                         double* predicted_s) {
  const hmpi::Runtime::CollSelection selection =
      hmpi::capi::detail::require_runtime().coll_selection(op, bytes);
  if (predicted_s != nullptr) *predicted_s = selection.predicted_s;
  return hmpi::coll::algo_name(op, selection.algo);
}

void HMPI_Group_observed(const HMPI_Group& gid, double measured_s, int runs) {
  hmpi::support::require(gid.has_value(),
                         "HMPI_Group_observed: not a live group");
  hmpi::capi::detail::require_runtime().group_observed(*gid, measured_s, runs);
}

void HMPI_Metrics_dump(std::ostream& os) {
  hmpi::telemetry::metrics().write_json(os);
}

void HMPI_Trace_export_json(std::ostream& os) {
  hmpi::capi::detail::require_runtime().trace_export_json(os);
}

void HMPI_Critical_path_json(std::ostream& os) {
  hmpi::capi::detail::require_runtime().critical_path_json(os);
}

std::vector<hmpi::Runtime::BlameEntry> HMPI_Blame_top(int k) {
  return hmpi::capi::detail::require_runtime().blame_top(k);
}

double HMPI_Prediction_error(std::string_view model_name) {
  return hmpi::telemetry::predictions().mean_relative_error(model_name);
}

hmpi::sched::JobId HMPI_Sched_submit(hmpi::sched::JobSpec spec) {
  return hmpi::capi::detail::require_runtime().scheduler().submit(
      std::move(spec));
}

std::optional<hmpi::sched::JobInfo> HMPI_Sched_poll(hmpi::sched::JobId job) {
  return hmpi::capi::detail::require_runtime().scheduler().poll(job);
}

int HMPI_Sched_cancel(hmpi::sched::JobId job) {
  return hmpi::capi::detail::require_runtime().scheduler().cancel(job) ? 1 : 0;
}

void HMPI_Sched_advance() {
  hmpi::capi::detail::require_runtime().scheduler().run_until_idle();
}

hmpi::sched::SchedStats HMPI_Sched_stats() {
  return hmpi::capi::detail::require_runtime().scheduler().stats();
}

void HMPI_Sched_stats_json(std::ostream& os) {
  hmpi::capi::detail::require_runtime().scheduler().stats_json(os);
}
