// Property test: every algorithm of every collective produces bit-identical
// results to a locally computed reference, across random rosters (including
// non-power-of-two sizes), random message sizes, and an armed seeded
// FaultPlan. Exact operators (int64 sum/xor, double max) make the reference
// order-independent, so "bit-identical" is well-defined for every combine
// tree. Internal collective traffic is exempt from drop/delay injection
// (tags above kMaxUserTag), so an armed plan must change nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "hnoc/cluster.hpp"
#include "mpsim/comm.hpp"
#include "support/rng.hpp"

namespace hmpi::coll {
namespace {

// Deterministic per-(rank, element) payload every rank can reconstruct.
std::int64_t value_at(std::uint64_t seed, int rank, std::size_t elem) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull +
                    static_cast<std::uint64_t>(rank) * 0xc2b2ae3d27d4eb4full +
                    static_cast<std::uint64_t>(elem) * 0x165667b19e3779f9ull;
  x ^= x >> 29;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 32;
  return static_cast<std::int64_t>(x >> 8);  // keep sums far from overflow
}

struct Scenario {
  int n;               // roster size
  std::size_t elems;   // vector length (bcast/reduce/allreduce)
  std::size_t block;   // per-member block (reduce_scatter/allgather)
  int root;
  std::uint64_t seed;
  hnoc::Cluster cluster;
  mp::World::Options options;
};

Scenario make_scenario(std::uint64_t seed, bool with_faults) {
  support::Rng rng(seed);
  const int sizes[] = {1, 2, 3, 5, 8, 9, 13};
  const int n = sizes[rng.next_in(0, 6)];
  const auto elems = static_cast<std::size_t>(rng.next_in(1, 97));
  const auto block = static_cast<std::size_t>(rng.next_in(1, 33));
  const int root = n == 1 ? 0 : static_cast<int>(rng.next_in(0, n - 1));
  // Random heterogeneous roster: per-machine speeds in [10, 200].
  hnoc::ClusterBuilder builder;
  for (int i = 0; i < n; ++i) {
    builder.add(std::string("m").append(std::to_string(i)),
                rng.next_double_in(10.0, 200.0));
  }
  Scenario s{n, elems, block, root, seed, builder.build(), {}};
  if (with_faults) {
    // Armed drop/delay schedule: collective-internal tags are exempt, so
    // the results (and completion) must be unaffected.
    s.options.faults.drop_probability = 0.5;
    s.options.faults.delay_probability = 0.5;
    s.options.faults.delay_s = 0.5;
    s.options.faults.seed = seed ^ 0xfau;
  }
  return s;
}

template <typename Op>
void run_all_algorithms(const Scenario& s, Op combine) {
  mp::World::run_one_per_processor(
      s.cluster,
      [&](mp::Proc& p) {
        mp::Comm comm = p.world_comm();
        const int n = comm.size();
        const int me = comm.rank();

        std::vector<std::int64_t> mine(s.elems);
        for (std::size_t e = 0; e < s.elems; ++e) {
          mine[e] = value_at(s.seed, me, e);
        }
        std::vector<std::int64_t> reduced(s.elems);
        for (std::size_t e = 0; e < s.elems; ++e) {
          std::int64_t acc = value_at(s.seed, 0, e);
          for (int r = 1; r < n; ++r) acc = combine(acc, value_at(s.seed, r, e));
          reduced[e] = acc;
        }

        for (int algo = 1; algo <= algo_count(CollOp::kBcast); ++algo) {
          CollPolicy policy;
          policy.set_choice(CollOp::kBcast, algo);
          comm.set_coll_policy(policy);
          std::vector<std::int64_t> data =
              me == s.root ? mine : std::vector<std::int64_t>(s.elems, -1);
          comm.bcast(std::span<std::int64_t>(data), s.root);
          for (std::size_t e = 0; e < s.elems; ++e) {
            ASSERT_EQ(data[e], value_at(s.seed, s.root, e))
                << "bcast/" << algo_name(CollOp::kBcast, algo);
          }
        }

        for (int algo = 1; algo <= algo_count(CollOp::kReduce); ++algo) {
          CollPolicy policy;
          policy.set_choice(CollOp::kReduce, algo);
          comm.set_coll_policy(policy);
          std::vector<std::int64_t> out(s.elems, -1);
          comm.reduce(std::span<const std::int64_t>(mine),
                      std::span<std::int64_t>(out), combine, s.root);
          if (me == s.root) {
            for (std::size_t e = 0; e < s.elems; ++e) {
              ASSERT_EQ(out[e], reduced[e])
                  << "reduce/" << algo_name(CollOp::kReduce, algo);
            }
          }
        }

        for (int algo = 1; algo <= algo_count(CollOp::kAllreduce); ++algo) {
          CollPolicy policy;
          policy.set_choice(CollOp::kAllreduce, algo);
          comm.set_coll_policy(policy);
          std::vector<std::int64_t> out(s.elems, -1);
          comm.allreduce(std::span<const std::int64_t>(mine),
                         std::span<std::int64_t>(out), combine);
          for (std::size_t e = 0; e < s.elems; ++e) {
            ASSERT_EQ(out[e], reduced[e])
                << "allreduce/" << algo_name(CollOp::kAllreduce, algo);
          }
        }

        const std::size_t total = s.block * static_cast<std::size_t>(n);
        std::vector<std::int64_t> blocks(total);
        for (std::size_t e = 0; e < total; ++e) {
          blocks[e] = value_at(s.seed, me, e);
        }
        for (int algo = 1; algo <= algo_count(CollOp::kReduceScatter);
             ++algo) {
          CollPolicy policy;
          policy.set_choice(CollOp::kReduceScatter, algo);
          comm.set_coll_policy(policy);
          std::vector<std::int64_t> out(s.block, -1);
          comm.reduce_scatter(std::span<const std::int64_t>(blocks),
                              std::span<std::int64_t>(out), combine);
          for (std::size_t e = 0; e < s.block; ++e) {
            const std::size_t idx = static_cast<std::size_t>(me) * s.block + e;
            std::int64_t acc = value_at(s.seed, 0, idx);
            for (int r = 1; r < n; ++r) {
              acc = combine(acc, value_at(s.seed, r, idx));
            }
            ASSERT_EQ(out[e], acc)
                << "reduce_scatter/"
                << algo_name(CollOp::kReduceScatter, algo);
          }
        }

        for (int algo = 1; algo <= algo_count(CollOp::kAllgather); ++algo) {
          CollPolicy policy;
          policy.set_choice(CollOp::kAllgather, algo);
          comm.set_coll_policy(policy);
          std::vector<std::int64_t> send(s.block);
          for (std::size_t e = 0; e < s.block; ++e) {
            send[e] = value_at(s.seed, me, e);
          }
          std::vector<std::int64_t> all(total, -1);
          comm.allgather(std::span<const std::int64_t>(send),
                         std::span<std::int64_t>(all));
          for (int r = 0; r < n; ++r) {
            for (std::size_t e = 0; e < s.block; ++e) {
              ASSERT_EQ(all[static_cast<std::size_t>(r) * s.block + e],
                        value_at(s.seed, r, e))
                  << "allgather/" << algo_name(CollOp::kAllgather, algo);
            }
          }
        }

        for (int algo = 1; algo <= algo_count(CollOp::kBarrier); ++algo) {
          CollPolicy policy;
          policy.set_choice(CollOp::kBarrier, algo);
          comm.set_coll_policy(policy);
          comm.barrier();
        }
      },
      s.options);
}

class CollPropertyP
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(CollPropertyP, EveryAlgorithmMatchesReference) {
  const auto [seed, with_faults] = GetParam();
  const Scenario s = make_scenario(seed, with_faults);
  SCOPED_TRACE("seed " + std::to_string(seed) + " n " + std::to_string(s.n) +
               " elems " + std::to_string(s.elems) + " faults " +
               std::to_string(with_faults));
  run_all_algorithms(s, [](std::int64_t a, std::int64_t b) { return a + b; });
  run_all_algorithms(s, [](std::int64_t a, std::int64_t b) { return a ^ b; });
}

TEST_P(CollPropertyP, DoubleMaxMatchesReference) {
  const auto [seed, with_faults] = GetParam();
  Scenario s = make_scenario(seed ^ 0x5eedull, with_faults);
  SCOPED_TRACE("seed " + std::to_string(seed));
  // max over doubles is exact regardless of combine order.
  mp::World::run_one_per_processor(
      s.cluster,
      [&](mp::Proc& p) {
        mp::Comm comm = p.world_comm();
        const int n = comm.size();
        std::vector<double> in(s.elems);
        for (std::size_t e = 0; e < s.elems; ++e) {
          in[e] = static_cast<double>(value_at(s.seed, comm.rank(), e));
        }
        const auto max_op = [](double a, double b) { return a > b ? a : b; };
        for (int algo = 1; algo <= algo_count(CollOp::kAllreduce); ++algo) {
          CollPolicy policy;
          policy.set_choice(CollOp::kAllreduce, algo);
          comm.set_coll_policy(policy);
          std::vector<double> out(s.elems, 0.0);
          comm.allreduce(std::span<const double>(in), std::span<double>(out),
                         max_op);
          for (std::size_t e = 0; e < s.elems; ++e) {
            double expected = static_cast<double>(value_at(s.seed, 0, e));
            for (int r = 1; r < n; ++r) {
              expected = max_op(expected,
                                static_cast<double>(value_at(s.seed, r, e)));
            }
            ASSERT_EQ(out[e], expected)
                << "allreduce/" << algo_name(CollOp::kAllreduce, algo);
          }
        }
      },
      s.options);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CollPropertyP,
    ::testing::Combine(::testing::Values(11ull, 23ull, 47ull, 83ull, 131ull,
                                         197ull),
                       ::testing::Bool()));

}  // namespace
}  // namespace hmpi::coll
