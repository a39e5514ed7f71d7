#include "apps/em3d/serial.hpp"

#include "support/error.hpp"

namespace hmpi::apps::em3d {

namespace {

double gather_value(const System& system, const NodeRef& ref, bool from_h) {
  const Subbody& body = system.bodies[static_cast<std::size_t>(ref.subbody)];
  const auto& values = from_h ? body.h_values : body.e_values;
  return values[static_cast<std::size_t>(ref.index)];
}

/// Recomputes every node of one field array from its dependency rows.
void update_field(const System& system, const Rows<NodeRef>& deps,
                  const Rows<double>& weights, bool from_h,
                  std::vector<double>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::span<const NodeRef> refs = deps[i];
    const std::span<const double> w = weights[i];
    double v = 0.0;
    for (std::size_t d = 0; d < refs.size(); ++d) {
      v += w[d] * gather_value(system, refs[d], from_h);
    }
    values[i] = v;
  }
}

}  // namespace

void serial_iteration(System& system) {
  // E phase: every E node from current H values.
  for (Subbody& body : system.bodies) {
    update_field(system, body.e_deps, body.e_weights, /*from_h=*/true,
                 body.e_values);
  }
  // H phase: every H node from the new E values.
  for (Subbody& body : system.bodies) {
    update_field(system, body.h_deps, body.h_weights, /*from_h=*/false,
                 body.h_values);
  }
}

double serial_run(System system, int iterations) {
  support::require(iterations >= 0, "iterations must be non-negative");
  for (int i = 0; i < iterations; ++i) serial_iteration(system);
  return system.checksum();
}

void recon_benchmark(mp::Proc& proc, const System& system, int k) {
  support::require(k > 0, "recon benchmark needs k > 0");
  // Actually touch the data of subbody 0 (k node updates, wrapping around),
  // then charge the k benchmark units.
  const Subbody& body = system.bodies.front();
  double sink = 0.0;
  const std::size_t e_count = body.e_values.size();
  for (int i = 0; i < k; ++i) {
    const std::size_t node = static_cast<std::size_t>(i) % e_count;
    for (double w : body.e_weights[node]) sink += w;
  }
  (void)sink;
  proc.compute(static_cast<double>(k));
}

}  // namespace hmpi::apps::em3d
