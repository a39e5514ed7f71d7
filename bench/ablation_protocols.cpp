// Ablation A5: multiple communication protocols in one application.
//
// The paper's first HNOC challenge (§1) is that one application should use
// different protocols between different process pairs — e.g. shared memory
// inside a machine and TCP between machines. Our substrate models this with
// per-pair link parameters. This bench runs the EM3D exchange-heavy workload
// with four processes on two machines (two per machine) and compares:
//   * single protocol: every pair talks over 100 Mbit Ethernet;
//   * multi protocol: intra-machine pairs use the shared-memory link.
// With this sizing both configurations print the same time, 240.0371 s: the
// intra-machine pairs are not on the critical path, so making their links
// 80x faster in bandwidth and 30x in latency changes nothing. The
// inter-machine Ethernet transfers and the compute bound every iteration.
#include <vector>

#include "apps/em3d/body.hpp"
#include "apps/em3d/parallel.hpp"
#include "bench_util.hpp"
#include "hnoc/cluster.hpp"

namespace {

using namespace hmpi;
using apps::em3d::GeneratorConfig;
using apps::em3d::System;
using apps::em3d::WorkMode;

hnoc::Cluster two_machines(bool multi_protocol) {
  hnoc::ClusterBuilder b;
  b.add("alpha", 100.0).add("beta", 100.0);
  b.network(150e-6, 12.5e6);
  if (multi_protocol) {
    b.shared_memory(5e-6, 1e9);
  } else {
    b.shared_memory(150e-6, 12.5e6);  // same wire for everyone
  }
  return b.build();
}

double run(const hnoc::Cluster& cluster, const System& system, int iterations) {
  double time = 0.0;
  // Processes 0,1 on machine 0; processes 2,3 on machine 1. Neighbouring
  // subbodies land on the same machine, so much of the boundary exchange is
  // intra-machine.
  mp::World::run(cluster, {0, 0, 1, 1}, [&](mp::Proc& p) {
    auto result = apps::em3d::run_parallel(p.world_comm(), system, iterations,
                                           WorkMode::kVirtualOnly);
    if (p.rank() == 0) time = result.algorithm_time;
  });
  return time;
}

}  // namespace

int main() {
  GeneratorConfig config;
  config.nodes_per_subbody = {3000, 3000, 3000, 3000};
  config.degree = 5;
  config.remote_fraction = 0.4;  // exchange-heavy decomposition
  config.seed = 57;
  const System system = apps::em3d::generate(config);

  support::Table table(
      "Ablation A5: multi-protocol communication (EM3D, 4 processes on 2 "
      "machines)",
      {"protocols", "em3d_time_s"});

  const double single = run(two_machines(false), system, 8);
  const double multi = run(two_machines(true), system, 8);
  table.add_row({"Ethernet only", support::Table::num(single)});
  table.add_row({"Ethernet + shared memory", support::Table::num(multi)});
  table.add_row({"single/multi", support::Table::num(single / multi, 3)});

  hmpi::bench::emit(table);
  return 0;
}
