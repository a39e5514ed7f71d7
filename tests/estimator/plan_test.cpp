// Tests of the compiled cost IR (estimator/plan.hpp): Plan::evaluate must be
// BIT-IDENTICAL to the tree-walking reference interpreter — the invariant
// that lets the kernel price every selection without perturbing it.
#include "estimator/plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "apps/matmul/app.hpp"
#include "estimator/estimate_cache.hpp"
#include "estimator/fingerprint.hpp"
#include "hnoc/cluster.hpp"
#include "reference/estimator.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace hmpi::est {
namespace {

using pmdl::InstanceBuilder;
using pmdl::ModelInstance;
using pmdl::ScheduleSink;

#define EXPECT_BIT_EQ(a, b)                              \
  EXPECT_EQ(std::bit_cast<std::uint64_t>((double)(a)),   \
            std::bit_cast<std::uint64_t>((double)(b)))   \
      << "values " << (a) << " vs " << (b)

#define ASSERT_BIT_EQ(a, b)                              \
  ASSERT_EQ(std::bit_cast<std::uint64_t>((double)(a)),   \
            std::bit_cast<std::uint64_t>((double)(b)))   \
      << "values " << (a) << " vs " << (b)

/// An EM3D-like scheme instance on `p` abstract processors with a boundary
/// exchange ring followed by a parallel compute phase.
ModelInstance ring_instance(int p, support::Rng& rng) {
  InstanceBuilder b("ring");
  b.shape({p});
  for (int i = 0; i < p; ++i) b.node_volume(i, 50.0 + rng.next_double() * 1e4);
  for (int i = 0; i < p; ++i) {
    b.link(i, (i + 1) % p, 100.0 + rng.next_double() * 1e6);
  }
  b.scheme([p](ScheduleSink& s) {
    s.par_begin();
    for (long long i = 0; i < p; ++i) {
      s.par_iter_begin();
      const long long src[1] = {i};
      const long long dst[1] = {(i + 1) % p};
      s.transfer(src, dst, 100.0);
    }
    s.par_end();
    s.par_begin();
    for (long long i = 0; i < p; ++i) {
      s.par_iter_begin();
      const long long c[1] = {i};
      s.compute(c, 100.0);
    }
    s.par_end();
  });
  return b.build();
}

/// A randomly generated, valid-by-construction scheme: sequences of
/// compute/transfer activations with nested par blocks. Exercises op
/// orderings no hand-written model would.
ModelInstance random_instance(int p, std::uint64_t seed) {
  support::Rng rng(seed);
  InstanceBuilder b("random");
  b.shape({p});
  for (int i = 0; i < p; ++i) b.node_volume(i, rng.next_double() * 1e4);
  const int links = 2 * p;
  for (int i = 0; i < links; ++i) {
    const int src =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(p)));
    const int dst =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(p)));
    if (src == dst) continue;  // the builder rejects self links
    b.link(src, dst, rng.next_double() * 1e6);
  }
  // The generator lambda gets its own deterministic stream so the builder's
  // draws above do not shift the scheme shape.
  b.scheme([p, seed](ScheduleSink& s) {
    support::Rng r(seed ^ 0x5eedULL);
    auto emit_leaf = [&] {
      const long long a = static_cast<long long>(
          r.next_below(static_cast<std::uint64_t>(p)));
      if (r.next_below(2) == 0) {
        const long long c[1] = {a};
        s.compute(c, 25.0 + r.next_double() * 75.0);
      } else {
        const long long d = static_cast<long long>(
            r.next_below(static_cast<std::uint64_t>(p)));
        const long long src[1] = {a}, dst[1] = {d};  // s==d sometimes: must drop
        s.transfer(src, dst, 25.0 + r.next_double() * 75.0);
      }
    };
    auto emit_block = [&](auto&& self, int depth) -> void {
      const int items = 2 + static_cast<int>(r.next_below(5));
      for (int i = 0; i < items; ++i) {
        if (depth < 2 && r.next_below(4) == 0) {
          const int iters = 1 + static_cast<int>(r.next_below(3));
          s.par_begin();
          for (int it = 0; it < iters; ++it) {
            s.par_iter_begin();
            self(self, depth + 1);
          }
          s.par_end();
        } else {
          emit_leaf();
        }
      }
    };
    emit_block(emit_block, 0);
  });
  return b.build();
}

/// Scheme-less instance: the aggregate fallback bound.
ModelInstance fallback_instance(int p, std::uint64_t seed) {
  support::Rng rng(seed);
  InstanceBuilder b("fallback");
  b.shape({p});
  for (int i = 0; i < p; ++i) b.node_volume(i, rng.next_double() * 1e4);
  for (int i = 0; i < p; ++i) {
    for (int j = 0; j < p; ++j) {
      if (i != j && rng.next_below(3) == 0) {
        b.link(i, j, rng.next_double() * 1e6);
      }
    }
  }
  return b.build();
}

std::vector<int> random_mapping(int p, int machines, support::Rng& rng) {
  std::vector<int> m(static_cast<std::size_t>(p));
  for (int& x : m) {
    x = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(machines)));
  }
  return m;
}

TEST(Plan, CompiledMatchesInterpreterBitForBit) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  hnoc::NetworkModel net(cluster);
  support::Rng rng(7);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const ModelInstance inst =
        seed % 3 == 0 ? ring_instance(9, rng) : random_instance(6, seed);
    const Plan plan(inst);
    EXPECT_TRUE(plan.from_scheme());
    for (int trial = 0; trial < 8; ++trial) {
      const auto m = random_mapping(inst.size(), net.size(), rng);
      ASSERT_BIT_EQ(plan.evaluate(m, net),
                    reference::estimate_time(inst, m, net, EstimateOptions()));
    }
  }
}

TEST(Plan, FallbackMatchesInterpreterBitForBit) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  hnoc::NetworkModel net(cluster);
  support::Rng rng(11);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const ModelInstance inst = fallback_instance(7, seed);
    const Plan plan(inst);
    EXPECT_FALSE(plan.from_scheme());
    for (int trial = 0; trial < 8; ++trial) {
      const auto m = random_mapping(inst.size(), net.size(), rng);
      ASSERT_BIT_EQ(plan.evaluate(m, net),
                    reference::estimate_time(inst, m, net, EstimateOptions()));
    }
  }
}

TEST(Plan, LoweringDropsSelfTransfersAndFoldsPercent) {
  auto inst = InstanceBuilder("t")
                  .shape({2})
                  .node_volume(0, 100.0)
                  .link(0, 1, 1e6)
                  .scheme([](ScheduleSink& s) {
                    const long long a[1] = {0}, b[1] = {1};
                    s.compute(a, 50.0);
                    s.transfer(a, a, 100.0);  // self: dropped at compile
                    s.transfer(a, b, 25.0);
                  })
                  .build();
  const Plan plan(inst);
  ASSERT_EQ(plan.ops().size(), 2u);
  EXPECT_EQ(plan.ops()[0].kind, PlanOp::Kind::kCompute);
  EXPECT_BIT_EQ(plan.ops()[0].value, 100.0 * 50.0 / 100.0);
  EXPECT_EQ(plan.ops()[1].kind, PlanOp::Kind::kTransfer);
  EXPECT_BIT_EQ(plan.ops()[1].value, 1e6 * 25.0 / 100.0);
  // Only the surviving transfer keys a busy slot.
  ASSERT_EQ(plan.transfer_pairs().size(), 1u);
  EXPECT_EQ(plan.transfer_pairs()[0], std::make_pair(0, 1));
}

TEST(Plan, LoweringDropsEmptyParSegmentsAndBlocksAndScopesMarkers) {
  using K = PlanOp::Kind;
  auto inst = InstanceBuilder("t")
                  .shape({3})
                  .node_volume(0, 10.0)
                  .node_volume(1, 20.0)
                  .node_volume(2, 30.0)
                  .link(0, 1, 1e6)
                  .scheme([](ScheduleSink& s) {
                    const long long p0[1] = {0}, p1[1] = {1}, p2[1] = {2};
                    s.par_begin();
                    s.compute(p2, 100.0);  // before the first iteration
                    s.par_iter_begin();
                    s.compute(p0, 100.0);
                    s.par_iter_begin();  // empty iteration
                    s.par_iter_begin();  // iteration holding an empty par
                    s.par_begin();
                    s.par_iter_begin();
                    s.par_iter_begin();
                    s.par_end();
                    s.par_iter_begin();
                    s.transfer(p0, p1, 100.0);
                    s.par_end();
                    s.par_begin();  // empty block
                    s.par_iter_begin();
                    s.par_end();
                    s.compute(p1, 100.0);
                  })
                  .build();
  const Plan plan(inst);
  // 6 of the raw stream's 17 events remain: the empty iterations, the empty
  // nested par and the empty block are gone, and each of the block's three
  // one-op segments is one kParCompute or kParTransfer, with no
  // kParIterBegin to close it.
  const std::vector<K> expected{K::kParBegin,   K::kParCompute,
                                K::kParCompute, K::kParTransfer,
                                K::kParEnd,     K::kCompute};
  ASSERT_EQ(plan.ops().size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(plan.ops()[k].kind, expected[k]) << "op " << k;
  }
  EXPECT_EQ(plan.op_count(), expected.size());
  const auto rows = [](std::span<const int> r) {
    return std::vector<int>(r.begin(), r.end());
  };
  const PlanOp& begin = plan.ops()[0];
  const PlanOp& end = plan.ops()[4];
  // The block's footprint: every time row and pair row it writes.
  EXPECT_EQ(rows(plan.time_rows(begin)), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(rows(plan.pair_rows(begin)), (std::vector<int>{0}));
  EXPECT_EQ(rows(plan.time_rows(end)), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(rows(plan.pair_rows(end)), (std::vector<int>{0}));
  // The one-op segments keep their activation's operands.
  EXPECT_EQ(plan.ops()[1].a, 2);
  EXPECT_EQ(plan.ops()[2].a, 0);
  EXPECT_EQ(plan.ops()[3].a, 0);
  EXPECT_EQ(plan.ops()[3].b, 1);
  EXPECT_EQ(plan.ops()[3].pair, 0);

  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  hnoc::NetworkModel net(cluster);
  support::Rng rng(17);
  for (int trial = 0; trial < 8; ++trial) {
    const auto m = random_mapping(inst.size(), net.size(), rng);
    ASSERT_BIT_EQ(plan.evaluate(m, net),
                  reference::estimate_time(inst, m, net, EstimateOptions()));
  }
}

TEST(Plan, LoweringFlattensWholeSegmentBlocksOnly) {
  using K = PlanOp::Kind;
  auto inst = InstanceBuilder("t")
                  .shape({4})
                  .node_volume(0, 10.0)
                  .node_volume(1, 20.0)
                  .node_volume(2, 30.0)
                  .node_volume(3, 40.0)
                  .link(2, 3, 1e6)
                  .scheme([](ScheduleSink& s) {
                    const long long p0[1] = {0}, p1[1] = {1}, p2[1] = {2},
                                    p3[1] = {3};
                    s.par_begin();
                    s.par_begin();  // the whole first segment: flattened
                    s.par_iter_begin();
                    s.compute(p0, 100.0);
                    s.compute(p1, 100.0);
                    s.par_iter_begin();
                    s.transfer(p2, p3, 100.0);
                    s.par_end();
                    s.par_iter_begin();
                    s.par_begin();  // followed by an op: kept
                    s.par_iter_begin();
                    s.compute(p2, 50.0);
                    s.par_iter_begin();
                    s.compute(p3, 50.0);
                    s.par_end();
                    s.compute(p0, 50.0);
                    s.par_end();
                  })
                  .build();
  const Plan plan(inst);
  // The flattened block's two segments are the outer block's first two: a
  // two-op segment closed by a kParIterBegin, then a kParTransfer. The
  // outer block's second segment is the kept block and the compute after
  // it, closed by the outer kParEnd.
  const std::vector<K> expected{
      K::kParBegin,    K::kCompute,  K::kCompute,    K::kParIterBegin,
      K::kParTransfer, K::kParBegin, K::kParCompute, K::kParCompute,
      K::kParEnd,      K::kCompute,  K::kParEnd};
  ASSERT_EQ(plan.ops().size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(plan.ops()[k].kind, expected[k]) << "op " << k;
  }
  const auto rows = [](std::span<const int> r) {
    return std::vector<int>(r.begin(), r.end());
  };
  EXPECT_EQ(rows(plan.time_rows(plan.ops()[0])),
            (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(rows(plan.pair_rows(plan.ops()[0])), (std::vector<int>{0}));
  EXPECT_EQ(rows(plan.time_rows(plan.ops()[3])), (std::vector<int>{0, 1}));
  EXPECT_TRUE(plan.pair_rows(plan.ops()[3]).empty());
  EXPECT_EQ(rows(plan.time_rows(plan.ops()[5])), (std::vector<int>{2, 3}));
  EXPECT_TRUE(plan.pair_rows(plan.ops()[5]).empty());
  EXPECT_EQ(rows(plan.time_rows(plan.ops()[8])), (std::vector<int>{2, 3}));
  EXPECT_EQ(rows(plan.time_rows(plan.ops()[10])),
            (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(rows(plan.pair_rows(plan.ops()[10])), (std::vector<int>{0}));

  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  hnoc::NetworkModel net(cluster);
  support::Rng rng(19);
  for (int trial = 0; trial < 8; ++trial) {
    const auto m = random_mapping(inst.size(), net.size(), rng);
    ASSERT_BIT_EQ(plan.evaluate(m, net),
                  reference::estimate_time(inst, m, net, EstimateOptions()));
  }
}

TEST(Plan, Fig11PlanKeepsOneBlockPerParLoopOfTheScheme) {
  // The Fig 11 Timeof instance (m = 3, r = 9, n = 36, l = 19) with the grid
  // speeds matmul::run_hmpi derives on paper_mm_network: the host's machine
  // first, then the fastest other machines. Each of the scheme's n steps
  // nests its receivers' par loops in whole segments of three outer loops,
  // so the plan keeps the three outer blocks' markers: 216 of its ops.
  const hnoc::Cluster cluster = hnoc::testbeds::paper_mm_network();
  const hnoc::NetworkModel net(cluster);
  std::vector<double> others(net.speeds().begin() + 1, net.speeds().end());
  std::sort(others.begin(), others.end(), std::greater<double>());
  std::vector<double> grid_speeds{net.speeds()[0]};
  grid_speeds.insert(grid_speeds.end(), others.begin(), others.begin() + 8);
  const apps::matmul::Partition partition(3, 19, grid_speeds);
  const Plan plan(apps::matmul::performance_model().instantiate(
      apps::matmul::model_parameters(3, 9, 36, partition)));
  std::size_t markers = 0;
  for (const PlanOp& op : plan.ops()) {
    markers += op.kind == PlanOp::Kind::kParBegin ||
               op.kind == PlanOp::Kind::kParIterBegin ||
               op.kind == PlanOp::Kind::kParEnd;
  }
  EXPECT_EQ(markers, 216u);
}

TEST(Plan, UnbalancedParStreamsAreRejected) {
  const auto compile = [](std::function<void(ScheduleSink&)> scheme) {
    const auto inst =
        InstanceBuilder("t").shape({2}).scheme(std::move(scheme)).build();
    return Plan(inst);
  };
  EXPECT_THROW(compile([](ScheduleSink& s) { s.par_iter_begin(); }),
               hmpi::InvalidArgument);
  EXPECT_THROW(compile([](ScheduleSink& s) { s.par_end(); }),
               hmpi::InvalidArgument);
  EXPECT_THROW(compile([](ScheduleSink& s) { s.par_begin(); }),
               hmpi::InvalidArgument);
}

TEST(Plan, EvaluateValidatesMapping) {
  auto inst = InstanceBuilder("t").shape({2}).build();
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  hnoc::NetworkModel net(cluster);
  const Plan plan(inst);
  const int too_short[1] = {0};
  EXPECT_THROW(plan.evaluate(too_short, net), hmpi::InvalidArgument);
  const int bad_proc[2] = {0, 99};
  EXPECT_THROW(plan.evaluate(bad_proc, net), hmpi::InvalidArgument);
}

TEST(Plan, EvaluateValidatesOverheads) {
  auto inst = InstanceBuilder("t")
                  .shape({2})
                  .node_volume(1, 50.0)
                  .link(0, 1, 1e3)
                  .scheme([](ScheduleSink& s) {
                    const long long a[1] = {0}, b[1] = {1};
                    s.transfer(a, b, 100.0);
                  })
                  .build();
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  hnoc::NetworkModel net(cluster);
  const Plan plan(inst);
  const int mapping[2] = {0, 1};
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0,
                           std::numeric_limits<double>::infinity()}) {
    EstimateOptions send;
    send.send_overhead_s = bad;
    EXPECT_THROW(plan.evaluate(mapping, net, send), hmpi::InvalidArgument)
        << bad;
    EstimateOptions recv;
    recv.recv_overhead_s = bad;
    EXPECT_THROW(plan.evaluate(mapping, net, recv), hmpi::InvalidArgument)
        << bad;
  }
  EXPECT_THROW(plan.evaluate_batch({}, 0, net, EstimateOptions{-1.0, 0.0}, {}),
               hmpi::InvalidArgument);
  const EstimateOptions zero{0.0, 0.0};
  ASSERT_BIT_EQ(plan.evaluate(mapping, net, zero),
                reference::estimate_time(inst, mapping, net, zero));
}

TEST(Plan, CompileRejectsPercentagesThatAreNotNumbers) {
  // A factory scheme activating node 1 (50 units) at NaN% priced the
  // mapping as if node 1 did nothing, and at -50% the same.
  for (const double percent : {std::numeric_limits<double>::quiet_NaN(),
                               -50.0,
                               std::numeric_limits<double>::infinity()}) {
    auto inst = InstanceBuilder("t")
                    .shape({2})
                    .node_volume(0, 10.0)
                    .node_volume(1, 50.0)
                    .scheme([percent](ScheduleSink& s) {
                      const long long a[1] = {0}, b[1] = {1};
                      s.par_begin();
                      s.compute(a, 100.0);
                      s.par_iter_begin();
                      s.compute(b, percent);
                      s.par_end();
                    })
                    .build();
    EXPECT_THROW(Plan{inst}, hmpi::InvalidArgument) << percent;
  }
}

TEST(PlanCache, CompilesOnceAndCounts) {
  support::Rng rng(9);
  const ModelInstance inst = ring_instance(5, rng);
  PlanCache cache;
  bool compiled = false;
  double seconds = -1.0;
  const auto p1 = cache.get(inst, &compiled, &seconds);
  EXPECT_TRUE(compiled);
  EXPECT_GE(seconds, 0.0);
  const auto p2 = cache.get(inst, &compiled, &seconds);
  EXPECT_FALSE(compiled);
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(EstimateCache, PlanBackedMissesMatchInterpreterEntries) {
  support::Rng rng(13);
  const ModelInstance inst = ring_instance(6, rng);
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  hnoc::NetworkModel net(cluster);
  const Plan plan(inst);
  const EstimateOptions options;
  const std::uint64_t fp = estimate_fingerprint(inst, options);

  EstimateCache via_plan;
  EstimateCache via_interp;
  for (int trial = 0; trial < 10; ++trial) {
    const auto m = random_mapping(inst.size(), net.size(), rng);
    bool hit = true;
    const double a = via_plan.estimate(fp, plan, m, net, options, &hit);
    via_interp.insert(fp, m, net,
                      reference::estimate_time(inst, m, net, options));
    double b = 0.0;
    ASSERT_TRUE(via_interp.lookup(fp, m, net, &b));
    ASSERT_BIT_EQ(a, b);
    // And a plan-backed hit returns the same stored bits.
    ASSERT_BIT_EQ(via_plan.estimate(fp, plan, m, net, options, &hit), a);
    EXPECT_TRUE(hit);
  }
}

}  // namespace
}  // namespace hmpi::est
