#include "apps/em3d/parallel.hpp"

#include <optional>
#include <vector>

#include "support/error.hpp"

namespace hmpi::apps::em3d {

namespace {

constexpr int kTagHPhase = 11;
constexpr int kTagEPhase = 12;

/// One rank's writable field values in real mode, indexed like the shared
/// System's: e[b][i] is E node i of subbody b as this rank sees it. The rank
/// updates its own subbody's and overwrites the boundary values it receives.
struct Fields {
  std::vector<std::vector<double>> e;
  std::vector<std::vector<double>> h;

  explicit Fields(const System& system) {
    for (const Subbody& body : system.bodies) {
      e.push_back(body.e_values);
      h.push_back(body.h_values);
    }
  }
};

/// Exchanges the boundary values of one phase. `use_h` selects which field
/// array is being shipped (H values before the E update, E values before the
/// H update). `fields` is null in virtual-only mode.
void exchange_boundaries(const mp::Comm& comm, const System& system,
                         Fields* fields, int me, bool use_h) {
  const int p = comm.size();
  const auto& needed = use_h ? system.remote_h_needed : system.remote_e_needed;
  const int tag = use_h ? kTagHPhase : kTagEPhase;

  // Send everything first (sends are buffered), then receive.
  for (int dst = 0; dst < p; ++dst) {
    if (dst == me) continue;
    const auto& indices =
        needed(static_cast<std::size_t>(dst), static_cast<std::size_t>(me));
    if (indices.empty()) continue;
    if (fields == nullptr) {
      comm.send_placeholder(indices.size() * sizeof(double), dst, tag);
      continue;
    }
    const auto& values = (use_h ? fields->h : fields->e)[static_cast<std::size_t>(me)];
    std::vector<double> packed;
    packed.reserve(indices.size());
    for (int idx : indices) packed.push_back(values[static_cast<std::size_t>(idx)]);
    comm.send(std::span<const double>(packed), dst, tag);
  }

  for (int src = 0; src < p; ++src) {
    if (src == me) continue;
    const auto& indices =
        needed(static_cast<std::size_t>(me), static_cast<std::size_t>(src));
    if (indices.empty()) continue;
    if (fields == nullptr) {
      comm.recv_placeholder(src, tag);
      continue;
    }
    std::vector<double> packed(indices.size());
    comm.recv(std::span<double>(packed), src, tag);
    auto& values = (use_h ? fields->h : fields->e)[static_cast<std::size_t>(src)];
    for (std::size_t i = 0; i < indices.size(); ++i) {
      values[static_cast<std::size_t>(indices[i])] = packed[i];
    }
  }
}

/// Updates one field array of the owned subbody (real mode only) and charges
/// the virtual cost (one benchmark unit per node).
void compute_phase(mp::Proc& proc, const System& system, Fields* fields,
                   int me, bool update_e) {
  const Subbody& body = system.bodies[static_cast<std::size_t>(me)];
  const std::size_t count = update_e ? body.e_values.size() : body.h_values.size();
  if (fields != nullptr) {
    const Rows<NodeRef>& deps = update_e ? body.e_deps : body.h_deps;
    const Rows<double>& weights = update_e ? body.e_weights : body.h_weights;
    const auto& sources = update_e ? fields->h : fields->e;
    auto& values = (update_e ? fields->e : fields->h)[static_cast<std::size_t>(me)];
    for (std::size_t i = 0; i < count; ++i) {
      const std::span<const NodeRef> refs = deps[i];
      const std::span<const double> w = weights[i];
      double v = 0.0;
      for (std::size_t d = 0; d < refs.size(); ++d) {
        const NodeRef& ref = refs[d];
        v += w[d] * sources[static_cast<std::size_t>(ref.subbody)]
                           [static_cast<std::size_t>(ref.index)];
      }
      values[i] = v;
    }
  }
  proc.compute(static_cast<double>(count));
}

}  // namespace

ParallelResult run_parallel(const mp::Comm& comm, const System& system,
                            int iterations, WorkMode mode) {
  support::require(comm.valid(), "run_parallel needs a valid communicator");
  support::require(comm.size() == system.subbody_count(),
                   "communicator size must equal the subbody count");
  support::require(iterations >= 0, "iterations must be non-negative");

  const int me = comm.rank();
  mp::Proc& proc = comm.proc();
  std::optional<Fields> real;
  if (mode == WorkMode::kReal) real.emplace(system);
  Fields* fields = real ? &*real : nullptr;

  // Synchronise, then measure the algorithm proper (the paper's figures
  // report algorithm execution time).
  comm.barrier();
  const double start = proc.clock();

  for (int it = 0; it < iterations; ++it) {
    exchange_boundaries(comm, system, fields, me, /*use_h=*/true);
    compute_phase(proc, system, fields, me, /*update_e=*/true);
    exchange_boundaries(comm, system, fields, me, /*use_h=*/false);
    compute_phase(proc, system, fields, me, /*update_e=*/false);
  }

  // Makespan: everyone agrees on the maximum elapsed time.
  double elapsed = proc.clock() - start;
  double makespan = 0.0;
  comm.allreduce(std::span<const double>(&elapsed, 1),
                 std::span<double>(&makespan, 1),
                 [](double a, double b) { return a > b ? a : b; });

  ParallelResult result;
  result.algorithm_time = makespan;
  if (fields != nullptr) {
    // Placement-independent checksum: sum of owned-subbody values.
    double local = 0.0;
    for (double v : fields->e[static_cast<std::size_t>(me)]) local += v;
    for (double v : fields->h[static_cast<std::size_t>(me)]) local += v;
    double total = 0.0;
    comm.allreduce(std::span<const double>(&local, 1),
                   std::span<double>(&total, 1),
                   [](double a, double b) { return a + b; });
    result.checksum = total;
  }
  return result;
}

}  // namespace hmpi::apps::em3d
