#include "estimator/estimate_cache.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "estimator/fingerprint.hpp"
#include "hnoc/cluster.hpp"
#include "reference/estimator.hpp"
#include "sched/capacity.hpp"
#include "support/rng.hpp"

namespace hmpi::est {
namespace {

using pmdl::InstanceBuilder;
using pmdl::ModelInstance;
using pmdl::ScheduleSink;

/// Model with computation and a communication ring, so estimates depend on
/// both speeds and links.
ModelInstance ring_model(int p) {
  InstanceBuilder b("ring");
  b.shape({p});
  for (int a = 0; a < p; ++a) {
    b.node_volume(a, 10.0 * (a + 1));
    b.link(a, (a + 1) % p, 1e5 * (a + 1));
  }
  b.scheme([p](ScheduleSink& s) {
    s.par_begin();
    for (long long a = 0; a < p; ++a) {
      s.par_iter_begin();
      const long long c[1] = {a};
      s.compute(c, 100.0);
    }
    s.par_end();
    for (long long a = 0; a < p; ++a) {
      const long long src[1] = {a}, dst[1] = {(a + 1) % p};
      s.transfer(src, dst, 100.0);
    }
  });
  return b.build();
}

/// `cache`'s estimate of `mapping`, priced by the kernel on a miss.
double memoised(EstimateCache& cache, const ModelInstance& inst,
                std::span<const int> mapping, const hnoc::NetworkModel& net,
                EstimateOptions options, bool* hit = nullptr) {
  return cache.estimate(estimate_fingerprint(inst, options), Plan(inst),
                        mapping, net, options, hit);
}

TEST(EstimateCache, AgreesBitForBitWithUncachedOnRandomMappings) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  hnoc::NetworkModel net(cluster);
  ModelInstance inst = ring_model(5);
  EstimateCache cache;
  support::Rng rng(0xcafe);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<int> mapping(5);
    for (int& p : mapping) {
      p = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(net.size())));
    }
    const double plain =
        reference::estimate_time(inst, mapping, net, EstimateOptions{});
    const double cached =
        memoised(cache, inst, mapping, net, EstimateOptions{});
    EXPECT_EQ(plain, cached);  // exact, not approximate
    // A second lookup must hit and return the identical bits.
    bool hit = false;
    EXPECT_EQ(memoised(cache, inst, mapping, net, EstimateOptions{}, &hit),
              plain);
    EXPECT_TRUE(hit);
  }
  EXPECT_GT(cache.hits(), 0);
  EXPECT_GT(cache.misses(), 0);
}

TEST(EstimateCache, RepeatLookupsHit) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(4);
  hnoc::NetworkModel net(cluster);
  ModelInstance inst = ring_model(3);
  EstimateCache cache;
  const std::vector<int> mapping{0, 1, 2};
  bool hit = true;
  memoised(cache, inst, mapping, net, EstimateOptions{}, &hit);
  EXPECT_FALSE(hit);
  memoised(cache, inst, mapping, net, EstimateOptions{}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(EstimateCache, SetSpeedInvalidatesThroughTheVersionCounter) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(4, 50.0);
  hnoc::NetworkModel net(cluster);
  ModelInstance inst = ring_model(3);
  EstimateCache cache;
  const std::vector<int> mapping{0, 1, 2};
  const double before = memoised(cache, inst, mapping, net, EstimateOptions{});

  net.set_speed(1, 5.0);  // recon: processor 1 is 10x slower than believed
  bool hit = true;
  const double after =
      memoised(cache, inst, mapping, net, EstimateOptions{}, &hit);
  EXPECT_FALSE(hit);  // the old entry is unreachable, not served stale
  EXPECT_EQ(after,
            reference::estimate_time(inst, mapping, net, EstimateOptions{}));
  EXPECT_NE(before, after);
}

TEST(EstimateCache, SnapshotCopiesShareTheVersion) {
  // The runtime estimates against snapshot copies of the shared model; the
  // copy must keep hitting entries produced by (copies of) the same state.
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(4);
  hnoc::NetworkModel net(cluster);
  ModelInstance inst = ring_model(3);
  EstimateCache cache;
  const std::vector<int> mapping{0, 1, 2};
  memoised(cache, inst, mapping, net, EstimateOptions{});

  hnoc::NetworkModel snapshot = net;
  EXPECT_EQ(snapshot.version(), net.version());
  bool hit = false;
  memoised(cache, inst, mapping, snapshot, EstimateOptions{}, &hit);
  EXPECT_TRUE(hit);

  // Mutating the snapshot diverges it from every other model.
  snapshot.set_speed(0, 123.0);
  EXPECT_NE(snapshot.version(), net.version());
  memoised(cache, inst, mapping, snapshot, EstimateOptions{}, &hit);
  EXPECT_FALSE(hit);
}

TEST(EstimateCache, DistinguishesInstancesAndOptions) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(4);
  hnoc::NetworkModel net(cluster);
  ModelInstance a = ring_model(3);
  ModelInstance b = ring_model(4);
  EstimateCache cache;
  const std::vector<int> map3{0, 1, 2};
  const std::vector<int> map4{0, 1, 2, 3};

  EXPECT_EQ(memoised(cache, a, map3, net, EstimateOptions{}),
            reference::estimate_time(a, map3, net, EstimateOptions{}));
  EXPECT_EQ(memoised(cache, b, map4, net, EstimateOptions{}),
            reference::estimate_time(b, map4, net, EstimateOptions{}));

  EstimateOptions heavy;
  heavy.send_overhead_s = 1.0;
  heavy.recv_overhead_s = 2.0;
  bool hit = true;
  EXPECT_EQ(memoised(cache, a, map3, net, heavy, &hit),
            reference::estimate_time(a, map3, net, heavy));
  EXPECT_FALSE(hit);  // different options, different entry
  EXPECT_EQ(cache.size(), 3u);
}

TEST(EstimateCache, ClearDropsEntriesButKeepsCounters) {
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(3);
  hnoc::NetworkModel net(cluster);
  ModelInstance inst = ring_model(3);
  EstimateCache cache;
  const std::vector<int> mapping{0, 1, 2};
  memoised(cache, inst, mapping, net, EstimateOptions{});
  memoised(cache, inst, mapping, net, EstimateOptions{});
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  bool hit = true;
  memoised(cache, inst, mapping, net, EstimateOptions{}, &hit);
  EXPECT_FALSE(hit);
}

TEST(EstimateCache, NeverStaleAcrossSchedulerLeaseReleaseCycles) {
  // Regression for the hmpictld overlay (docs/scheduler.md): the scheduler
  // prices placements against CapacityLedger::overlay(), whose speeds change
  // on every lease/release. Each mutation must re-stamp the overlay version
  // so a cached estimate from a previous lease state is unreachable — a
  // release that restored the original speeds but kept a stale version would
  // let the cache quote contended prices for an idle machine (or vice
  // versa).
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(4, 100.0);
  sched::Partition partition;
  partition.slots_per_machine = 2;
  sched::CapacityLedger ledger(cluster, partition);
  ModelInstance inst = ring_model(4);
  EstimateCache cache;
  const std::vector<int> mapping{0, 1, 2, 3};

  const auto check_fresh = [&] {
    // Ground truth recomputed from scratch against the current overlay; the
    // cache must agree bit for bit, and a repeat lookup must hit with the
    // identical bits.
    const EstimateOptions o{};
    const double plain =
        reference::estimate_time(inst, mapping, ledger.overlay(), o);
    EXPECT_EQ(memoised(cache, inst, mapping, ledger.overlay(), o), plain);
    bool hit = false;
    EXPECT_EQ(memoised(cache, inst, mapping, ledger.overlay(), o, &hit),
              plain);
    EXPECT_TRUE(hit);
    return plain;
  };

  const double idle = check_fresh();
  ledger.lease(1, /*job=*/7);
  const double contended = check_fresh();
  EXPECT_GT(contended, idle);  // machine 1 runs at half speed
  ledger.lease(1, /*job=*/8);
  check_fresh();
  ledger.release(1, 8);
  EXPECT_EQ(check_fresh(), contended);  // same speeds, fresh version, same bits
  ledger.release(1, 7);
  // Full cycle: speeds are back to the idle state, but the version moved, so
  // this is a miss that reproduces the idle estimate exactly.
  bool hit = true;
  EXPECT_EQ(memoised(cache, inst, mapping, ledger.overlay(), EstimateOptions{},
                     &hit),
            idle);
  EXPECT_FALSE(hit);
  ledger.refresh_base({100.0, 50.0, 100.0, 100.0});
  EXPECT_NE(check_fresh(), idle);  // recon re-pricing invalidates too
}

TEST(EstimateCache, ConcurrentLookupsAreConsistent) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  hnoc::NetworkModel net(cluster);
  ModelInstance inst = ring_model(6);
  EstimateCache cache;

  // Precompute the ground truth serially.
  std::vector<std::vector<int>> mappings;
  std::vector<double> expected;
  support::Rng rng(0xbeef);
  for (int i = 0; i < 64; ++i) {
    std::vector<int> mapping(6);
    for (int& p : mapping) {
      p = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(net.size())));
    }
    expected.push_back(
        reference::estimate_time(inst, mapping, net, EstimateOptions{}));
    mappings.push_back(std::move(mapping));
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        for (std::size_t i = 0; i < mappings.size(); ++i) {
          const double got =
              memoised(cache, inst, mappings[i], net, EstimateOptions{});
          EXPECT_EQ(got, expected[i]);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_LE(cache.size(), 64u);
  EXPECT_GT(cache.hits(), 0);
}

}  // namespace
}  // namespace hmpi::est
