// Ablation A12: simulator core scaling (docs/simulator.md).
//
// Every simulated process runs as a fiber on the event engine, which
// dispatches them one at a time from a virtual-time event queue on the
// calling thread. This bench runs a hand-rolled workload (a ring exchange,
// a dissemination barrier, and a second ring round, all plain p2p) at
// P = 64 / 1000 / 10000 and reports the wall time and the virtual makespan
// of each size. EXPERIMENTS.md keeps the last thread-per-process numbers,
// measured before that engine was removed, as history.
#include <chrono>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hnoc/cluster.hpp"
#include "mpsim/comm.hpp"

namespace {

using namespace hmpi;

struct RunOutcome {
  double wall_s = 0.0;
  double makespan = 0.0;
};

RunOutcome run_workload(int P) {
  hnoc::Cluster cluster = hnoc::testbeds::two_level(4, 4, 100.0);
  const int machines = cluster.size();
  std::vector<int> placement(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) placement[static_cast<std::size_t>(r)] = r % machines;

  mp::World::Options options;
  options.fiber_stack_bytes = 256 * 1024;

  RunOutcome out;
  const auto start = std::chrono::steady_clock::now();
  auto result = mp::World::run(
      cluster, placement,
      [P](mp::Proc& p) {
        mp::Comm comm = p.world_comm();
        const int me = p.rank();
        auto ring_round = [&](int tag) {
          comm.send_placeholder(256, (me + 1) % P, tag);
          comm.recv_placeholder((me + P - 1) % P, tag);
        };
        ring_round(1);
        for (int k = 1, round = 0; k < P; k <<= 1, ++round) {
          comm.send_placeholder(1, (me + k) % P, 100 + round);
          comm.recv_placeholder((me + P - k) % P, 100 + round);
        }
        ring_round(2);
      },
      options);
  out.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  out.makespan = result.makespan;
  return out;
}

}  // namespace

int main() {
  support::Table table(
      "Ablation A12: simulator core scaling (ring + dissemination barrier, "
      "16 machines)",
      {"processes", "wall_s", "virtual_makespan_s"});

  for (int P : {64, 1000, 10000}) {
    const RunOutcome run = run_workload(P);
    table.add_row({std::to_string(P), support::Table::num(run.wall_s),
                   support::Table::num(run.makespan)});
  }

  hmpi::bench::emit(table);
  hmpi::bench::write_bench_json("simcore", {table});
  return 0;
}
