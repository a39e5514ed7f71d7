// Cross-layer fidelity: the estimator and the mpsim execution engine share
// one cost model (DESIGN.md §4), so for a program that executes exactly the
// schedule a model describes, the predicted makespan must equal the
// simulated makespan to the last bit — not approximately.
//
// Property-style: randomly generated schedules (volumes, links, phase
// sequences) over randomly generated heterogeneous clusters, swept over
// seeds with TEST_P.
#include <gtest/gtest.h>

#include <vector>

#include "estimator/plan.hpp"
#include "hnoc/cluster.hpp"
#include "mpsim/comm.hpp"
#include "reference/estimator.hpp"
#include "support/rng.hpp"

namespace hmpi::est {
namespace {

using pmdl::InstanceBuilder;
using pmdl::ModelInstance;
using pmdl::ScheduleSink;

/// One generated schedule: volumes per abstract processor, link volumes,
/// and an ordered list of phases.
struct Phase {
  enum Kind { kParCompute, kTransfer } kind;
  double percent = 0.0;  // of the actor's total volume / link volume
  int src = 0;           // kTransfer
  int dst = 0;           // kTransfer
};

struct Schedule {
  int p = 0;
  std::vector<double> volumes;
  std::vector<std::vector<double>> link_bytes;  // [src][dst]
  std::vector<Phase> phases;
};

Schedule generate_schedule(std::uint64_t seed) {
  support::Rng rng(seed);
  Schedule s;
  s.p = static_cast<int>(rng.next_in(2, 5));
  for (int a = 0; a < s.p; ++a) {
    s.volumes.push_back(rng.next_double_in(10.0, 500.0));
  }
  s.link_bytes.assign(static_cast<std::size_t>(s.p),
                      std::vector<double>(static_cast<std::size_t>(s.p), 0.0));
  for (int a = 0; a < s.p; ++a) {
    for (int b = 0; b < s.p; ++b) {
      if (a != b && rng.next_double() < 0.6) {
        // Whole hundreds of bytes so that percent * bytes / 100 is integral
        // for the percent values below (mpsim messages carry whole bytes).
        s.link_bytes[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
            static_cast<double>(rng.next_in(10, 20000)) * 100.0;
      }
    }
  }
  const double percents[] = {10.0, 20.0, 25.0, 50.0};
  const int phase_count = static_cast<int>(rng.next_in(3, 12));
  for (int i = 0; i < phase_count; ++i) {
    Phase phase;
    if (rng.next_double() < 0.5) {
      phase.kind = Phase::kParCompute;
      phase.percent = rng.next_double_in(5.0, 40.0);  // compute stays double
    } else {
      phase.kind = Phase::kTransfer;
      phase.src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(s.p)));
      do {
        phase.dst = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(s.p)));
      } while (phase.dst == phase.src);
      phase.percent = percents[rng.next_below(4)];
    }
    s.phases.push_back(phase);
  }
  return s;
}

hnoc::Cluster generate_cluster(std::uint64_t seed, int machines) {
  support::Rng rng(seed ^ 0xabcdef);
  hnoc::ClusterBuilder b;
  for (int i = 0; i < machines; ++i) {
    b.add(std::string("m").append(std::to_string(i)),
          rng.next_double_in(5.0, 200.0));
  }
  b.network(rng.next_double_in(5e-5, 5e-4), rng.next_double_in(1e6, 5e7));
  return b.build();
}

ModelInstance instance_for(const Schedule& s) {
  InstanceBuilder b("generated");
  b.shape({s.p});
  for (int a = 0; a < s.p; ++a) {
    b.node_volume(a, s.volumes[static_cast<std::size_t>(a)]);
  }
  for (int a = 0; a < s.p; ++a) {
    for (int c = 0; c < s.p; ++c) {
      const double bytes = s.link_bytes[static_cast<std::size_t>(a)][static_cast<std::size_t>(c)];
      if (bytes > 0.0) b.link(a, c, bytes);
    }
  }
  const Schedule schedule = s;  // captured by value
  b.scheme([schedule](ScheduleSink& sink) {
    for (const Phase& phase : schedule.phases) {
      if (phase.kind == Phase::kParCompute) {
        sink.par_begin();
        for (long long a = 0; a < schedule.p; ++a) {
          sink.par_iter_begin();
          const long long c[1] = {a};
          sink.compute(c, phase.percent);
        }
        sink.par_end();
      } else {
        const long long src[1] = {phase.src};
        const long long dst[1] = {phase.dst};
        sink.transfer(src, dst, phase.percent);
      }
    }
  });
  return b.build();
}

class FidelityP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FidelityP, EstimateEqualsSimulatedMakespan) {
  const std::uint64_t seed = GetParam();
  const Schedule schedule = generate_schedule(seed);
  const hnoc::Cluster cluster = generate_cluster(seed, schedule.p);
  hnoc::NetworkModel net(cluster);

  // Identity mapping: abstract processor a on machine a.
  std::vector<int> mapping(static_cast<std::size_t>(schedule.p));
  for (int a = 0; a < schedule.p; ++a) mapping[static_cast<std::size_t>(a)] = a;

  const ModelInstance instance = instance_for(schedule);
  mp::World::Options options;  // default overheads, matching the estimator
  const EstimateOptions overheads{options.send_overhead_s,
                                  options.recv_overhead_s};
  const double predicted = Plan(instance).evaluate(mapping, net, overheads);
  EXPECT_EQ(predicted,
            reference::estimate_time(instance, mapping, net, overheads));

  // Execute the same schedule for real: one process per abstract processor.
  auto result = mp::World::run_one_per_processor(
      cluster,
      [&](mp::Proc& proc) {
        mp::Comm comm = proc.world_comm();
        const int me = proc.rank();
        int transfer_seq = 0;
        for (const Phase& phase : schedule.phases) {
          if (phase.kind == Phase::kParCompute) {
            proc.compute(phase.percent / 100.0 *
                         schedule.volumes[static_cast<std::size_t>(me)]);
          } else {
            const int tag = 100 + transfer_seq++;
            if (me == phase.src) {
              const double bytes =
                  phase.percent / 100.0 *
                  schedule.link_bytes[static_cast<std::size_t>(phase.src)]
                                     [static_cast<std::size_t>(phase.dst)];
              comm.send_placeholder(static_cast<std::size_t>(bytes), phase.dst,
                                    tag);
            } else if (me == phase.dst) {
              comm.recv_placeholder(phase.src, tag);
            }
          }
        }
      },
      options);

  EXPECT_NEAR(result.makespan, predicted, 1e-9 + 1e-12 * predicted)
      << "seed " << seed << ": the shared cost model diverged";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FidelityP,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
                                           144, 233, 377, 610, 987));

}  // namespace
}  // namespace hmpi::est
