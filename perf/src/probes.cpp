#include "probes.hpp"

#include <memory>

#include "estimator/estimate_cache.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace hmpi::perf {
namespace {

void probe_batch(Tracer& tracer, long long op, const est::Plan& plan,
                 const hnoc::NetworkModel& network, std::uint64_t seed) {
  const auto slots = static_cast<std::size_t>(plan.size());
  std::vector<int> procs_soa(slots * kBatchProbeMappings);
  support::Rng rng(seed);
  for (int& proc : procs_soa) {
    proc = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(network.size())));
  }
  std::vector<double> out(kBatchProbeMappings);
  const ScopedSpan span(tracer, "estimator.batch_eval", op);
  plan.evaluate_batch(procs_soa, kBatchProbeMappings, network,
                      est::EstimateOptions{}, out);
}

void probe_select(Tracer& tracer, long long op, const map::Mapper& mapper,
                  const pmdl::ModelInstance& instance,
                  const hnoc::NetworkModel& network, int threads) {
  std::vector<map::Candidate> candidates;
  candidates.reserve(static_cast<std::size_t>(network.size()));
  for (int r = 0; r < network.size(); ++r) candidates.push_back({r, r});

  std::unique_ptr<support::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<support::ThreadPool>(threads);
  est::EstimateCache cache;
  est::PlanCache plans;
  map::SearchContext context;
  context.pool = pool.get();
  context.cache = &cache;
  context.plans = &plans;

  const ScopedSpan span(tracer, "mapper.select", op);
  mapper.select(instance, candidates, 0, network, est::EstimateOptions{},
                context);
}

}  // namespace

Compiled probe_compile(Tracer& tracer, long long op, const pmdl::Model& model,
                       std::span<const pmdl::ParamValue> params) {
  const int instantiate = tracer.begin("pmdl.instantiate", op);
  pmdl::ModelInstance instance = model.instantiate(params);
  tracer.end(instantiate);
  const int compile = tracer.begin("estimator.compile", op);
  est::Plan plan(instance);
  tracer.end(compile);
  return {std::move(instance), std::move(plan)};
}

void probe_layers(Tracer& tracer, long long op, const pmdl::Model& model,
                  std::span<const pmdl::ParamValue> params,
                  const map::Mapper& mapper, const hnoc::NetworkModel& network,
                  int threads, std::uint64_t seed) {
  const Compiled compiled = probe_compile(tracer, op, model, params);
  probe_batch(tracer, op, compiled.plan, network, seed);
  probe_select(tracer, op, mapper, compiled.instance, network, threads);
}

void set_speeds(hnoc::NetworkModel& network,
                const std::vector<double>& speeds) {
  for (std::size_t p = 0; p < speeds.size(); ++p) {
    network.set_speed(static_cast<int>(p), speeds[p]);
  }
}

}  // namespace hmpi::perf
