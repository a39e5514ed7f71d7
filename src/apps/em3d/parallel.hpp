// The parallel EM3D algorithm (paper Figure 3): per iteration, gather remote
// H boundary values, compute E, gather remote E boundary values, compute H.
//
// The communicator's rank r owns subbody r — for the plain MPI version that
// is whatever machine happens to have world rank r; for the HMPI version the
// group communicator is ordered by abstract processor, so the runtime has
// matched subbody volumes to machine speeds.
#pragma once

#include "apps/em3d/body.hpp"
#include "apps/em3d/serial.hpp"
#include "mpsim/comm.hpp"

namespace hmpi::apps::em3d {

struct ParallelResult {
  /// Virtual seconds from the post-setup barrier to the last rank's finish
  /// (identical value at every rank).
  double algorithm_time = 0.0;
  /// Sum of all field values after the run (real mode; 0 in virtual mode).
  double checksum = 0.0;
};

/// Executes `iterations` of the algorithm on `comm` (one rank per subbody;
/// comm.size() must equal system.subbody_count()). Every rank passes the
/// same initial `system`, which the ranks share and only read: virtual-only
/// mode copies nothing, and real mode gives each rank its own copy of the
/// field values (its subbody's, plus the boundary values it receives), never
/// of the dependency rows. Collective over comm.
ParallelResult run_parallel(const mp::Comm& comm, const System& system,
                            int iterations, WorkMode mode);

}  // namespace hmpi::apps::em3d
