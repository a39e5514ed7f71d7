#include "apps/em3d/body.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace hmpi::apps::em3d {

std::vector<long long> System::node_counts() const {
  std::vector<long long> counts;
  counts.reserve(bodies.size());
  for (const Subbody& b : bodies) counts.push_back(b.nodes());
  return counts;
}

std::vector<long long> System::dep_flat() const {
  std::vector<long long> flat;
  flat.reserve(dep.size());
  for (std::size_t i = 0; i < dep.rows(); ++i) {
    for (std::size_t j = 0; j < dep.cols(); ++j) flat.push_back(dep(i, j));
  }
  return flat;
}

double System::checksum() const {
  double sum = 0.0;
  for (const Subbody& b : bodies) {
    for (double v : b.e_values) sum += v;
    for (double v : b.h_values) sum += v;
  }
  return sum;
}

namespace {

/// Picks the dependency targets for one field array: `degree` per node, in
/// node order. Every subbody has at least one E and one H node (generate()
/// requires 2 nodes per subbody), so each target pool is non-empty.
void wire_dependencies(System& system, int subbody, bool for_e_nodes,
                       const GeneratorConfig& config, support::Rng& rng) {
  const int p = system.subbody_count();
  Subbody& body = system.bodies[static_cast<std::size_t>(subbody)];
  const std::size_t count =
      for_e_nodes ? body.e_values.size() : body.h_values.size();
  const auto degree = static_cast<std::size_t>(config.degree);
  std::vector<NodeRef> deps(count * degree);
  std::vector<double> weights(count * degree);

  for (std::size_t slot = 0; slot < deps.size(); ++slot) {
    int target_body = subbody;
    if (p > 1 && rng.next_double() < config.remote_fraction) {
      target_body = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(p - 1)));
      if (target_body >= subbody) ++target_body;  // skip self
    }
    const Subbody& target = system.bodies[static_cast<std::size_t>(target_body)];
    // E nodes read H values and vice versa (bipartite).
    const std::size_t pool =
        for_e_nodes ? target.h_values.size() : target.e_values.size();
    deps[slot] = {target_body, static_cast<int>(rng.next_below(pool))};
    weights[slot] = rng.next_double_in(0.1, 1.0) / config.degree;
  }
  (for_e_nodes ? body.e_deps : body.h_deps) = Rows<NodeRef>(std::move(deps), degree);
  (for_e_nodes ? body.e_weights : body.h_weights) =
      Rows<double>(std::move(weights), degree);
}

/// Appends the foreign index of every remote ref in subbody i's `deps` to
/// needed(i, ref.subbody).
void collect_remote(const Rows<NodeRef>& deps, int i,
                    support::Matrix<std::vector<int>>& needed) {
  for (const NodeRef& ref : deps.flat()) {
    if (ref.subbody != i) {
      needed(static_cast<std::size_t>(i), static_cast<std::size_t>(ref.subbody))
          .push_back(ref.index);
    }
  }
}

}  // namespace

System generate(const GeneratorConfig& config) {
  support::require(!config.nodes_per_subbody.empty(),
                   "generator needs at least one subbody");
  support::require(config.degree > 0, "degree must be positive");
  support::require(config.remote_fraction >= 0.0 && config.remote_fraction <= 1.0,
                   "remote_fraction must be in [0, 1]");
  for (int n : config.nodes_per_subbody) {
    support::require(n >= 2, "each subbody needs at least 2 nodes");
  }

  support::Rng rng(config.seed);
  System system;
  const int p = static_cast<int>(config.nodes_per_subbody.size());
  const auto up = static_cast<std::size_t>(p);

  // Allocate field values first (so dependency targets exist everywhere).
  system.bodies.resize(up);
  for (int i = 0; i < p; ++i) {
    const int nodes = config.nodes_per_subbody[static_cast<std::size_t>(i)];
    const int e_count = nodes / 2;
    const int h_count = nodes - e_count;
    Subbody& body = system.bodies[static_cast<std::size_t>(i)];
    body.e_values.resize(static_cast<std::size_t>(e_count));
    body.h_values.resize(static_cast<std::size_t>(h_count));
    for (double& v : body.e_values) v = rng.next_double_in(-1.0, 1.0);
    for (double& v : body.h_values) v = rng.next_double_in(-1.0, 1.0);
  }

  for (int i = 0; i < p; ++i) {
    wire_dependencies(system, i, /*for_e_nodes=*/true, config, rng);
    wire_dependencies(system, i, /*for_e_nodes=*/false, config, rng);
  }

  // Summarise remote needs: which foreign node indices each subbody reads.
  system.remote_h_needed = support::Matrix<std::vector<int>>(up, up);
  system.remote_e_needed = support::Matrix<std::vector<int>>(up, up);
  for (int i = 0; i < p; ++i) {
    const Subbody& body = system.bodies[static_cast<std::size_t>(i)];
    collect_remote(body.e_deps, i, system.remote_h_needed);
    collect_remote(body.h_deps, i, system.remote_e_needed);
  }
  for (auto* needed : {&system.remote_h_needed, &system.remote_e_needed}) {
    for (std::vector<int>& indices : needed->flat()) {
      std::sort(indices.begin(), indices.end());
      indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
    }
  }
  system.dep = support::Matrix<int>(up, up, 0);
  for (std::size_t i = 0; i < up; ++i) {
    for (std::size_t j = 0; j < up; ++j) {
      system.dep(i, j) = static_cast<int>(system.remote_h_needed(i, j).size() +
                                          system.remote_e_needed(i, j).size());
    }
  }
  return system;
}

}  // namespace hmpi::apps::em3d
