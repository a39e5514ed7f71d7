// EM3D application drivers: the plain MPI version (paper Figure 3) and the
// HMPI version (paper Figure 5), both running over a simulated HNOC.
#pragma once

#include <vector>

#include "apps/em3d/body.hpp"
#include "apps/em3d/serial.hpp"
#include "hnoc/cluster.hpp"
#include "pmdl/model.hpp"

namespace hmpi::apps::em3d {

/// The EM3D performance model (the paper's Figure 4, parsed from its PMDL
/// text): algorithm Em3d(int p, int k, int d[p], int dep[p][p]).
pmdl::Model performance_model();

/// Parameter pack for performance_model(): k is the benchmark node count.
/// Throws InvalidArgument unless 0 < k <= the smallest subbody's node count.
std::vector<pmdl::ParamValue> model_parameters(const System& system, int k);

struct DriverResult {
  double algorithm_time = 0.0;  ///< Virtual seconds of the iteration loop.
  double total_time = 0.0;      ///< Host's total virtual time (incl. setup).
  double predicted_time = 0.0;  ///< HMPI only: Timeof-style prediction.
  double checksum = 0.0;        ///< Real mode only.
  std::vector<int> placement;   ///< Processor executing each subbody.
};

/// Plain MPI version: subbody i runs on machine i of the cluster, in order —
/// the "explicitly chosen from an ordered set of processes" baseline.
DriverResult run_mpi(const hnoc::Cluster& cluster, const GeneratorConfig& config,
                     int iterations, WorkMode mode);

/// HMPI version: Recon with the serial EM3D benchmark, Group_create with the
/// Figure-4 model, algorithm on the group communicator. `k` is the benchmark
/// node count used for Recon and the model's k parameter; it must not
/// exceed the smallest subbody (see model_parameters).
DriverResult run_hmpi(const hnoc::Cluster& cluster, const GeneratorConfig& config,
                      int iterations, WorkMode mode, int k);

}  // namespace hmpi::apps::em3d
