// Layer probes of the traced pass. Each one calls a single layer directly,
// on the exact inputs the end-to-end path handed it, and records one span:
//   pmdl.instantiate     Model::instantiate on the op's parameters;
//   estimator.compile    est::Plan built from that instance;
//   estimator.batch_eval Plan::evaluate_batch over 1024 seeded mappings;
//   mapper.select        the runtime's mapper on the same instance and
//                        candidates, with a fresh estimate cache.
// Probes run after the op's span has closed, so they never count in it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common.hpp"
#include "estimator/plan.hpp"
#include "hnoc/network_model.hpp"
#include "mapper/mapper.hpp"
#include "pmdl/model.hpp"

namespace hmpi::perf {

/// Mappings priced per estimator.batch_eval span.
inline constexpr std::size_t kBatchProbeMappings = 1024;

struct Compiled {
  pmdl::ModelInstance instance;
  est::Plan plan;
};

/// Instantiates `params` and compiles the plan (pmdl.instantiate and
/// estimator.compile spans).
Compiled probe_compile(Tracer& tracer, long long op, const pmdl::Model& model,
                       std::span<const pmdl::ParamValue> params);

/// All four probes on one parameter set: the batch prices seeded random
/// mappings onto `network`; `mapper` selects over candidates {world rank r
/// on processor r}, parent at rank 0, with `threads` search workers.
void probe_layers(Tracer& tracer, long long op, const pmdl::Model& model,
                  std::span<const pmdl::ParamValue> params,
                  const map::Mapper& mapper, const hnoc::NetworkModel& network,
                  int threads, std::uint64_t seed);

/// Sets `network`'s speed estimates to `speeds` (the runtime's view after
/// recon).
void set_speeds(hnoc::NetworkModel& network, const std::vector<double>& speeds);

}  // namespace hmpi::perf
