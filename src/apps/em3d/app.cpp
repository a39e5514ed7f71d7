#include "apps/em3d/app.hpp"

#include <algorithm>
#include <mutex>
#include <string>
#include <utility>

#include "apps/em3d/parallel.hpp"
#include "hmpi/runtime.hpp"
#include "mpsim/comm.hpp"
#include "support/error.hpp"

namespace hmpi::apps::em3d {

pmdl::Model performance_model() {
  // Verbatim from the paper's Figure 4.
  return pmdl::Model::from_source(R"(
algorithm Em3d(int p, int k, int d[p], int dep[p][p]) {
  coord I=p;
  node {I>=0: bench*(d[I]/k);};
  link (L=p) {
    I>=0 && I!=L && (dep[I][L] > 0) :
      length*(dep[I][L]*sizeof(double)) [L]->[I];
  };
  parent[0];
  scheme {
    int current, owner, remote;
    par (owner = 0; owner < p; owner++)
        par (remote = 0; remote < p; remote++)
             if ((owner != remote) && (dep[owner][remote] > 0))
                100%%[remote]->[owner];
    par (current = 0; current < p; current++) 100%%[current];
  };
};
)");
}

std::vector<pmdl::ParamValue> model_parameters(const System& system, int k) {
  // Figure 4 prices node I as bench*(d[I]/k) in integer arithmetic, so a k
  // above d[I] would price subbody I at zero compute.
  std::vector<long long> d = system.node_counts();
  const auto smallest =
      static_cast<std::size_t>(std::min_element(d.begin(), d.end()) - d.begin());
  support::require(k > 0 && k <= d[smallest],
                   "EM3D benchmark size k = " + std::to_string(k) +
                       " must be in [1, " + std::to_string(d[smallest]) +
                       "]: subbody " + std::to_string(smallest) + " has " +
                       std::to_string(d[smallest]) + " nodes");
  return {pmdl::scalar(system.subbody_count()), pmdl::scalar(k),
          pmdl::array(std::move(d)), pmdl::array(system.dep_flat())};
}

DriverResult run_mpi(const hnoc::Cluster& cluster, const GeneratorConfig& config,
                     int iterations, WorkMode mode) {
  const System system = generate(config);
  const int p = system.subbody_count();
  support::require(p <= cluster.size(),
                   "more subbodies than machines in the cluster");

  DriverResult result;
  std::mutex result_mutex;

  mp::World::run_one_per_processor(cluster, [&](mp::Proc& proc) {
    // Figure 3: ranks [0, p) split off and execute the algorithm; the
    // subbody index is simply the rank.
    mp::Comm world = proc.world_comm();
    const bool executing = proc.rank() < p;
    mp::Comm em3dcomm =
        world.split(executing ? 1 : mp::kUndefinedColor, proc.rank());
    if (!executing) return;

    ParallelResult parallel = run_parallel(em3dcomm, system, iterations, mode);
    if (proc.rank() == 0) {
      std::lock_guard<std::mutex> lock(result_mutex);
      result.algorithm_time = parallel.algorithm_time;
      result.total_time = proc.clock();
      result.checksum = parallel.checksum;
      result.placement.resize(static_cast<std::size_t>(p));
      for (int i = 0; i < p; ++i) {
        result.placement[static_cast<std::size_t>(i)] = i;
      }
    }
  });
  return result;
}

DriverResult run_hmpi(const hnoc::Cluster& cluster, const GeneratorConfig& config,
                      int iterations, WorkMode mode, int k) {
  const System system = generate(config);
  const int p = system.subbody_count();
  support::require(p <= cluster.size(),
                   "more subbodies than machines in the cluster");

  DriverResult result;
  std::mutex result_mutex;

  pmdl::Model model = performance_model();
  const std::vector<pmdl::ParamValue> params = model_parameters(system, k);

  mp::World::run_one_per_processor(cluster, [&](mp::Proc& proc) {
    // Figure 5 lifecycle.
    Runtime rt(proc);

    // HMPI_Recon with the serial EM3D benchmark (k representative nodes).
    rt.recon([&](mp::Proc& q) { recon_benchmark(q, system, k); });

    auto group = rt.group_create(model, params);
    if (group) {
      ParallelResult parallel =
          run_parallel(group->comm(), system, iterations, mode);
      if (rt.is_host()) {
        // Close the prediction-ledger entry: the model describes one
        // iteration, so the measured time is split over the iterations.
        rt.group_observed(*group, parallel.algorithm_time, iterations);
        std::lock_guard<std::mutex> lock(result_mutex);
        result.algorithm_time = parallel.algorithm_time;
        result.checksum = parallel.checksum;
        // The model describes one iteration; scale the prediction.
        result.predicted_time = group->estimated_time() * iterations;
        result.placement.resize(static_cast<std::size_t>(p));
        for (int a = 0; a < p; ++a) {
          result.placement[static_cast<std::size_t>(a)] =
              proc.world().processor_of(group->members()[static_cast<std::size_t>(a)]);
        }
      }
      rt.group_free(*group);
    }
    rt.finalize();
    if (rt.is_host()) {
      std::lock_guard<std::mutex> lock(result_mutex);
      result.total_time = proc.clock();
    }
  });
  return result;
}

}  // namespace hmpi::apps::em3d
