// Cost-model fidelity: every algorithm's analytical cost (coll/cost.hpp)
// must equal its simulated virtual makespan on an idle network, because the
// executor and the cost replay consume the same schedule with the same
// timing formulas. This is the property that makes the tuner's
// predicted-fastest pick the measured-fastest pick.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "coll/cost.hpp"
#include "hnoc/cluster.hpp"
#include "hnoc/network_model.hpp"
#include "mpsim/comm.hpp"

namespace hmpi::coll {
namespace {

struct Case {
  const char* name;
  hnoc::Cluster cluster;
};

std::vector<Case> cases() {
  std::vector<Case> cs;
  cs.push_back({"homogeneous5", hnoc::testbeds::homogeneous(5, 100.0)});
  cs.push_back({"homogeneous8", hnoc::testbeds::homogeneous(8, 100.0)});
  cs.push_back({"paper9", hnoc::testbeds::paper_em3d_network()});
  return cs;
}

// Runs one collective as the very first action of a fresh world (idle
// clocks, idle links) with the algorithm pinned via the per-comm policy and
// returns the virtual makespan.
double simulate(const hnoc::Cluster& cluster, CollOp op, int algo,
                std::size_t elems_or_block) {
  CollPolicy policy;
  policy.set_choice(op, algo);
  const auto result = mp::World::run_one_per_processor(
      cluster, [&](mp::Proc& p) {
        mp::Comm comm = p.world_comm();
        comm.set_coll_policy(policy);
        const int n = comm.size();
        const auto sum = [](double a, double b) { return a + b; };
        switch (op) {
          case CollOp::kBcast: {
            std::vector<double> data(elems_or_block,
                                     static_cast<double>(p.rank()));
            comm.bcast(std::span<double>(data), 0);
            break;
          }
          case CollOp::kReduce: {
            std::vector<double> in(elems_or_block, 1.0);
            std::vector<double> out(elems_or_block, 0.0);
            comm.reduce(std::span<const double>(in), std::span<double>(out),
                        sum, 0);
            break;
          }
          case CollOp::kAllreduce: {
            std::vector<double> in(elems_or_block, 1.0);
            std::vector<double> out(elems_or_block, 0.0);
            comm.allreduce(std::span<const double>(in),
                           std::span<double>(out), sum);
            break;
          }
          case CollOp::kReduceScatter: {
            std::vector<double> in(
                elems_or_block * static_cast<std::size_t>(n), 1.0);
            std::vector<double> out(elems_or_block, 0.0);
            comm.reduce_scatter(std::span<const double>(in),
                                std::span<double>(out), sum);
            break;
          }
          case CollOp::kAllgather: {
            std::vector<double> mine(elems_or_block,
                                     static_cast<double>(p.rank()));
            std::vector<double> all(
                elems_or_block * static_cast<std::size_t>(n), 0.0);
            comm.allgather(std::span<const double>(mine),
                           std::span<double>(all));
            break;
          }
          case CollOp::kBarrier:
            comm.barrier();
            break;
        }
      });
  return result.makespan;
}

TEST(CostFidelity, PredictionEqualsSimulationForEveryAlgorithm) {
  // 10000 doubles: big enough that the chain bcast splits into two 64 KiB
  // segments, so pipelining fidelity is exercised too.
  const std::size_t elems = 10000;
  const std::size_t block = 64;
  for (const Case& c : cases()) {
    const int n = c.cluster.size();
    hnoc::NetworkModel network(c.cluster);
    std::vector<int> procs(static_cast<std::size_t>(n));
    std::iota(procs.begin(), procs.end(), 0);
    for (CollOp op : {CollOp::kBcast, CollOp::kReduce, CollOp::kAllreduce,
                      CollOp::kReduceScatter, CollOp::kAllgather,
                      CollOp::kBarrier}) {
      const bool blocked =
          op == CollOp::kReduceScatter || op == CollOp::kAllgather;
      const std::size_t per_member = blocked ? block : elems;
      const std::size_t bytes =
          op == CollOp::kBarrier
              ? 0
              : (blocked ? block * static_cast<std::size_t>(n) : elems) *
                    sizeof(double);
      for (int algo = 1; algo <= algo_count(op); ++algo) {
        const double predicted =
            collective_cost(op, algo, procs, bytes, network);
        const double measured = simulate(c.cluster, op, algo, per_member);
        EXPECT_NEAR(measured, predicted, 1e-12 + 1e-9 * predicted)
            << c.name << " " << op_name(op) << "/" << algo_name(op, algo);
      }
    }
  }
}

TEST(CostFidelity, EstimatorDelegateMatches) {
  // An unpinned (kAuto) collective on a world without a tuner runs the
  // legacy default, so collective_cost of that default must price it.
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  hnoc::NetworkModel network(cluster);
  std::vector<int> procs(static_cast<std::size_t>(cluster.size()));
  std::iota(procs.begin(), procs.end(), 0);
  const double predicted = collective_cost(CollOp::kBcast,
                                           legacy_default(CollOp::kBcast),
                                           procs, 4096, network);
  const double measured = simulate(cluster, CollOp::kBcast, /*kAuto*/ 0, 512);
  EXPECT_NEAR(predicted, measured, 1e-12 + 1e-9 * predicted);
}

}  // namespace
}  // namespace hmpi::coll
