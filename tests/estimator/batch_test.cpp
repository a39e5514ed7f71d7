// The SoA batch evaluator (estimator/plan.hpp): evaluate_batch must equal N
// one-at-a-time Plan::evaluate calls and the reference interpreter bit for
// bit on arbitrary models and clusters.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "estimator/plan.hpp"
#include "hnoc/cluster.hpp"
#include "reference/estimator.hpp"
#include "support/rng.hpp"

namespace hmpi::est {
namespace {

using pmdl::InstanceBuilder;
using pmdl::ModelInstance;
using pmdl::ScheduleSink;

/// Random scheme-bearing model: heterogeneous volumes, a random edge set, a
/// par block of computes, then serial compute/transfer phases over the
/// edges — exercises every op kind the batch evaluator prices.
ModelInstance random_scheme_model(support::Rng& rng, int p) {
  InstanceBuilder b("batch-rand");
  b.shape({p});
  std::vector<std::pair<long long, long long>> edges;
  for (int a = 0; a < p; ++a) {
    b.node_volume(a, 1.0 + rng.next_double() * 100.0);
    const auto to = static_cast<long long>(
        rng.next_below(static_cast<std::uint64_t>(p)));
    if (to != a) {
      b.link(a, static_cast<int>(to), 1e4 + rng.next_double() * 1e5);
      edges.push_back({a, to});
    }
  }
  const int phases = 1 + static_cast<int>(rng.next_below(3));
  b.scheme([p, phases, edges](ScheduleSink& s) {
    for (int phase = 0; phase < phases; ++phase) {
      s.par_begin();
      for (long long a = 0; a < p; ++a) {
        s.par_iter_begin();
        const long long c[1] = {a};
        s.compute(c, 10.0 + static_cast<double>(a));
      }
      s.par_end();
      for (const auto& [src, dst] : edges) {
        const long long from[1] = {src}, to[1] = {dst};
        s.transfer(from, to, 50.0 + static_cast<double>(phase));
      }
    }
  });
  return b.build();
}

/// Random nested-par scheme model. Besides random nesting, every model
/// opens with one block that holds each par shape the kernel's footprint
/// frames must price: ops before the first iteration, an empty iteration,
/// an empty nested block, and transfers over distinct abstract pairs with a
/// common destination, which mappings onto 2-3 machines alias onto one
/// physical link. Random blocks add empty blocks, transfers inside frames
/// and more nesting.
ModelInstance nested_par_model(support::Rng& rng, int p) {
  InstanceBuilder b("batch-nested");
  b.shape({p});
  for (int a = 0; a < p; ++a) {
    b.node_volume(a, 1.0 + rng.next_double() * 100.0);
    for (int d = 0; d < p; ++d) {
      if (d != a && rng.next_below(3) != 0) {
        b.link(a, d, 1e4 + rng.next_double() * 1e5);
      }
    }
  }
  const std::uint64_t seed = rng.next();
  b.scheme([p, seed](ScheduleSink& s) {
    support::Rng r(seed);
    const auto proc = [&] {
      return static_cast<long long>(
          r.next_below(static_cast<std::uint64_t>(p)));
    };
    const auto compute = [&](long long a) {
      const long long c[1] = {a};
      s.compute(c, 5.0 + r.next_double() * 45.0);
    };
    const auto transfer = [&](long long from, long long to) {
      const long long src[1] = {from}, dst[1] = {to};
      s.transfer(src, dst, 10.0 + r.next_double() * 90.0);
    };
    const auto leaf = [&] {
      if (r.next_below(3) == 0) {
        compute(proc());
      } else {
        transfer(proc(), proc());
      }
    };
    // The fixed coverage block (p >= 3).
    s.par_begin();
    compute(0);  // before the first iteration
    transfer(2, 0);
    s.par_iter_begin();
    transfer(1, 0);
    s.par_iter_begin();  // empty iteration
    s.par_iter_begin();
    s.par_begin();  // empty nested block
    s.par_iter_begin();
    s.par_end();
    transfer(2, 1);
    transfer(0, 1);
    s.par_iter_begin();
    compute(1);
    s.par_end();
    // Random nesting: a block draws 0-2 ops before its first iteration and
    // 0-3 iterations of 0-3 items each.
    const auto block = [&](auto&& self, int depth) -> void {
      s.par_begin();
      for (auto k = r.next_below(3); k > 0; --k) leaf();
      for (auto it = r.next_below(4); it > 0; --it) {
        s.par_iter_begin();
        for (auto k = r.next_below(4); k > 0; --k) {
          if (depth < 3 && r.next_below(3) == 0) {
            self(self, depth + 1);
          } else {
            leaf();
          }
        }
      }
      s.par_end();
    };
    for (int phase = 0; phase < 4; ++phase) {
      leaf();
      block(block, 0);
    }
  });
  return b.build();
}

/// Random model whose scheme holds the par shapes the plan compiler
/// rewrites (docs/estimator.md §3), between random leaves:
///   * chains of blocks that are each the whole segment of the block around
///     them, 2-4 levels below an outer block; the innermost block's
///     segments put one-op segments first, in the middle and last among
///     multi-op ones, or multi-op segments first and last around a one-op
///     one;
///   * one-op and multi-op segments of the outer block itself, first, in
///     the middle and last;
///   * a nested block followed by an op in the same segment, and one
///     preceded by an op, which must stay blocks of their own.
/// Mappings onto 2-3 machines make pairs of different segments alias.
ModelInstance lowering_par_model(support::Rng& rng, int p) {
  InstanceBuilder b("batch-lowering");
  b.shape({p});
  for (int a = 0; a < p; ++a) {
    b.node_volume(a, 1.0 + rng.next_double() * 100.0);
    for (int d = 0; d < p; ++d) {
      if (d != a && rng.next_below(3) != 0) {
        b.link(a, d, 1e4 + rng.next_double() * 1e5);
      }
    }
  }
  const std::uint64_t seed = rng.next();
  b.scheme([p, seed](ScheduleSink& s) {
    support::Rng r(seed);
    const auto proc = [&] {
      return static_cast<long long>(
          r.next_below(static_cast<std::uint64_t>(p)));
    };
    // A compute or a transfer between two distinct processors, so that
    // every segment below keeps the ops it draws.
    const auto leaf = [&] {
      const long long from[1] = {proc()};
      if (r.next_below(3) == 0) {
        s.compute(from, 5.0 + r.next_double() * 45.0);
        return;
      }
      const long long to[1] = {
          (from[0] + 1 + static_cast<long long>(r.next_below(
                             static_cast<std::uint64_t>(p - 1)))) %
          p};
      s.transfer(from, to, 10.0 + r.next_double() * 90.0);
    };
    // An iteration of one op, or of 2-3 ops.
    const auto segment = [&](bool one) {
      s.par_iter_begin();
      for (auto k = one ? 1 : 2 + r.next_below(2); k > 0; --k) leaf();
    };
    const auto block = [&](std::initializer_list<bool> pattern) {
      s.par_begin();
      for (const bool one : pattern) segment(one);
      s.par_end();
    };
    const auto chain = [&](auto&& self, int levels, bool ones_outside) {
      if (levels == 0) {
        if (ones_outside) {
          block({true, false, true, false, true});
        } else {
          block({false, true, false});
        }
        return;
      }
      s.par_begin();
      s.par_iter_begin();
      self(self, levels - 1, ones_outside);
      s.par_end();
    };
    for (int round = 0; round < 2; ++round) {
      leaf();
      s.par_begin();
      segment(true);
      s.par_iter_begin();
      chain(chain, 1 + static_cast<int>(r.next_below(3)), round == 0);
      s.par_iter_begin();
      block({true, false});  // followed by an op: kept
      leaf();
      segment(true);
      s.par_iter_begin();
      leaf();
      block({false, true});  // preceded by an op: kept
      segment(false);
      s.par_iter_begin();
      chain(chain, 1 + static_cast<int>(r.next_below(3)), round == 1);
      segment(true);
      s.par_end();
    }
  });
  return b.build();
}

/// Model with volumes and links but no scheme: the estimator's fallback
/// path, which the batch evaluator must reproduce too.
ModelInstance fallback_model(support::Rng& rng, int p) {
  InstanceBuilder b("batch-fallback");
  b.shape({p});
  for (int a = 0; a < p; ++a) {
    b.node_volume(a, 1.0 + rng.next_double() * 100.0);
    b.link(a, (a + 1) % p, 1e4 + rng.next_double() * 1e5);
  }
  return b.build();
}

/// Random heterogeneous cluster with a few per-pair link overrides.
hnoc::Cluster random_cluster(support::Rng& rng, int machines) {
  hnoc::ClusterBuilder b;
  for (int i = 0; i < machines; ++i) {
    b.add(std::string("m").append(std::to_string(i)),
          10.0 + rng.next_double() * 150.0);
  }
  b.network(1e-4 + rng.next_double() * 1e-3, 1e6 + rng.next_double() * 1e8);
  b.shared_memory(5e-6, 1e9);
  for (int k = 0; k < machines / 2; ++k) {
    const int from = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(machines)));
    const int to = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(machines)));
    if (from != to) {
      b.link_override(from, to, 5e-4, 2e6 + rng.next_double() * 1e7);
    }
  }
  return b.build();
}

/// Prices `rows` (one mapping each) in one batch and expects each to equal
/// a single Plan::evaluate and the reference interpreter bit for bit.
void expect_rows_match_singles(const ModelInstance& instance,
                               const hnoc::NetworkModel& net,
                               const std::vector<std::vector<int>>& rows) {
  const Plan plan(instance);
  const auto p = static_cast<std::size_t>(instance.size());
  const std::size_t count = rows.size();
  const EstimateOptions options{};

  std::vector<int> soa(p * count);
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t a = 0; a < p; ++a) soa[a * count + i] = rows[i][a];
  }

  std::vector<double> batched(count);
  plan.evaluate_batch(soa, count, net, options, batched);
  for (std::size_t i = 0; i < count; ++i) {
    const double single = plan.evaluate(rows[i], net, options);
    EXPECT_EQ(single, batched[i]) << "mapping " << i;  // exact bits
    // And both must equal the reference interpreter.
    EXPECT_EQ(reference::estimate_time(instance, rows[i], net, options),
              batched[i]);
  }
}

void expect_batch_matches_singles(const ModelInstance& instance,
                                  const hnoc::NetworkModel& net,
                                  support::Rng& rng, std::size_t count) {
  const auto p = static_cast<std::size_t>(instance.size());
  std::vector<std::vector<int>> rows(count, std::vector<int>(p, 0));
  for (std::vector<int>& row : rows) {
    for (int& proc : row) {
      proc = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(net.size())));
    }
  }
  expect_rows_match_singles(instance, net, rows);
}

/// `count` mappings of `p` slots onto `machines` >= p processors that
/// alternate between slots on distinct processors (a random injection) and
/// slots that all sit on two processors, so some of their pairs alias.
std::vector<std::vector<int>> mixed_rows(support::Rng& rng, int p,
                                         int machines, std::size_t count) {
  std::vector<std::vector<int>> rows;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<int> procs(static_cast<std::size_t>(machines));
    for (int m = 0; m < machines; ++m) procs[static_cast<std::size_t>(m)] = m;
    for (int m = machines - 1; m > 0; --m) {  // Fisher-Yates
      std::swap(procs[static_cast<std::size_t>(m)],
                procs[rng.next_below(static_cast<std::uint64_t>(m + 1))]);
    }
    std::vector<int> row(procs.begin(), procs.begin() + p);
    if (i % 2 == 1) {
      for (int& proc : row) proc = procs[rng.next_below(2)];
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(BatchEvaluator, MatchesSinglesOnRandomSchemeModels) {
  support::Rng rng(0xb47c4);
  for (int trial = 0; trial < 12; ++trial) {
    const int p = 2 + static_cast<int>(rng.next_below(7));
    const int machines = p + static_cast<int>(rng.next_below(20));
    const hnoc::Cluster cluster = random_cluster(rng, machines);
    const hnoc::NetworkModel net(cluster);
    const ModelInstance instance = random_scheme_model(rng, p);
    const auto count =
        static_cast<std::size_t>(1 + rng.next_below(50));
    expect_batch_matches_singles(instance, net, rng, count);
  }
}

TEST(BatchEvaluator, MatchesSinglesOnNestedParModelsWithAliasedLinks) {
  support::Rng rng(0x9e57ed);
  support::Rng mixed(0x313ed);
  support::Rng lowering(0x10e4e);
  for (int trial = 0; trial < 24; ++trial) {
    const int p = 3 + static_cast<int>(rng.next_below(5));
    const int machines = 2 + static_cast<int>(rng.next_below(2));
    const hnoc::Cluster cluster = random_cluster(rng, machines);
    const hnoc::NetworkModel net(cluster);
    const ModelInstance instance = nested_par_model(rng, p);
    const auto count = static_cast<std::size_t>(1 + rng.next_below(40));
    expect_batch_matches_singles(instance, net, rng, count);

    // One batch that mixes candidates on distinct processors, whose pairs
    // never alias, with candidates that share processors.
    const int wide = p + static_cast<int>(mixed.next_below(4));
    const hnoc::Cluster wide_cluster = random_cluster(mixed, wide);
    const hnoc::NetworkModel wide_net(wide_cluster);
    expect_rows_match_singles(
        instance, wide_net,
        mixed_rows(mixed, p, wide, 2 + static_cast<std::size_t>(
                                           mixed.next_below(20))));

    // The shapes the plan compiler flattens and folds, on 2-3 machines.
    const int q = 3 + static_cast<int>(lowering.next_below(5));
    const hnoc::Cluster small = random_cluster(
        lowering, 2 + static_cast<int>(lowering.next_below(2)));
    const hnoc::NetworkModel small_net(small);
    expect_batch_matches_singles(
        lowering_par_model(lowering, q), small_net, lowering,
        static_cast<std::size_t>(1 + lowering.next_below(40)));
  }
}

TEST(BatchEvaluator, MatchesSinglesOnFallbackModels) {
  support::Rng rng(0xfa11);
  for (int trial = 0; trial < 8; ++trial) {
    const int p = 2 + static_cast<int>(rng.next_below(5));
    const hnoc::Cluster cluster = random_cluster(rng, p + 6);
    const hnoc::NetworkModel net(cluster);
    const ModelInstance instance = fallback_model(rng, p);
    expect_batch_matches_singles(instance, net, rng, 17);
  }
}

TEST(BatchEvaluator, MatchesSinglesAtLargeClusterScale) {
  support::Rng rng(0x1000);
  const hnoc::Cluster cluster = hnoc::testbeds::large_cluster(1000);
  const hnoc::NetworkModel net(cluster);
  const ModelInstance instance = random_scheme_model(rng, 9);
  expect_batch_matches_singles(instance, net, rng, 64);
}

TEST(BatchEvaluator, RepeatedCallsReuseScratchDeterministically) {
  support::Rng rng(0x5eed);
  const hnoc::Cluster cluster = random_cluster(rng, 12);
  const hnoc::NetworkModel net(cluster);
  const ModelInstance instance = random_scheme_model(rng, 5);
  const Plan plan(instance);
  const auto p = static_cast<std::size_t>(instance.size());

  std::vector<int> soa(p * 8);
  for (std::size_t k = 0; k < soa.size(); ++k) {
    soa[k] = static_cast<int>(rng.next_below(12));
  }
  std::vector<double> first(8), second(8);
  plan.evaluate_batch(soa, 8, net, EstimateOptions{}, first);
  plan.evaluate_batch(soa, 8, net, EstimateOptions{}, second);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace hmpi::est
