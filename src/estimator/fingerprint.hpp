// Stable fingerprints of model instances and estimate options.
//
// Shared by est::EstimateCache (memoised makespans) and est::PlanCache
// (compiled cost plans): both key on "which model instance is this?" without
// holding a reference to it. The combiner is the SplitMix64 finaliser (the
// mixing step of support::Rng), so fingerprints are identical across
// platforms and standard libraries.
//
// Two instances of the same model and parameters fingerprint identically
// (their schemes replay the same activations); instances that differ in any
// aggregate cannot collide short of a 64-bit hash collision.
#pragma once

#include <bit>
#include <cstdint>

#include "estimator/plan.hpp"
#include "pmdl/model.hpp"

namespace hmpi::est {

/// SplitMix64 finaliser as a hash combiner.
inline std::uint64_t fp_mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t z = h + 0x9e3779b97f4a7c15ULL + v;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline std::uint64_t fp_mix_double(std::uint64_t h, double v) {
  return fp_mix(h, std::bit_cast<std::uint64_t>(v));
}

/// Fingerprint of the instance's aggregates: name, shape, parent, scheme
/// presence, node volumes, and link table. Everything an estimate depends on
/// besides the mapping, the network speeds, and the overhead options.
inline std::uint64_t instance_fingerprint(const pmdl::ModelInstance& instance) {
  std::uint64_t h = 0x484d5049ULL;  // "HMPI"
  for (char c : instance.model_name()) {
    h = fp_mix(h, static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  for (long long d : instance.shape()) {
    h = fp_mix(h, static_cast<std::uint64_t>(d));
  }
  h = fp_mix(h, static_cast<std::uint64_t>(instance.parent_index()));
  h = fp_mix(h, instance.has_scheme() ? 1 : 0);
  for (double v : instance.node_volumes()) h = fp_mix_double(h, v);
  for (const auto& [pair, bytes] : instance.link_bytes()) {
    h = fp_mix(h, static_cast<std::uint64_t>(pair.first));
    h = fp_mix(h, static_cast<std::uint64_t>(pair.second));
    h = fp_mix_double(h, bytes);
  }
  return h;
}

/// Instance fingerprint extended with the overhead options — the
/// EstimateCache key component that does not change per lookup.
inline std::uint64_t estimate_fingerprint(const pmdl::ModelInstance& instance,
                                          EstimateOptions options) {
  std::uint64_t h = instance_fingerprint(instance);
  h = fp_mix_double(h, options.send_overhead_s);
  h = fp_mix_double(h, options.recv_overhead_s);
  return h;
}

}  // namespace hmpi::est
