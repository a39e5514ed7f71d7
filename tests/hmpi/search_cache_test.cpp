// Regression tests for the runtime's shared estimate cache (docs/mapper.md):
// recon speed updates bump the NetworkModel version, so HMPI_Timeof can never
// serve a makespan computed from pre-recon speeds — including along the
// suspect/recover path — while repeated identical searches hit the cache.
#include "hmpi/runtime.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hmpi/hmpi_c.hpp"
#include "hnoc/cluster.hpp"
#include "mapper/mapper.hpp"
#include "mpsim/trace.hpp"

namespace hmpi {
namespace {

using mp::Proc;
using mp::World;
using pmdl::InstanceBuilder;
using pmdl::Model;
using pmdl::ParamValue;
using pmdl::ScheduleSink;

/// Compute-only model: p abstract processors, volumes[a] units each, all in
/// parallel; parent is abstract 0 (same shape as runtime_test.cpp).
Model compute_model() {
  return Model::from_factory(
      "compute", 1, [](std::span<const ParamValue> params) {
        const auto& volumes = std::get<std::vector<long long>>(params[0]);
        InstanceBuilder b("compute");
        const auto p = static_cast<long long>(volumes.size());
        b.shape({p});
        for (int a = 0; a < p; ++a) {
          b.node_volume(a, static_cast<double>(volumes[static_cast<std::size_t>(a)]));
        }
        b.scheme([p](ScheduleSink& s) {
          s.par_begin();
          for (long long a = 0; a < p; ++a) {
            s.par_iter_begin();
            const long long c[1] = {a};
            s.compute(c, 100.0);
          }
          s.par_end();
        });
        return b.build();
      });
}

ParamValue volumes(std::vector<long long> v) { return pmdl::array(std::move(v)); }

TEST(SearchCache, RepeatedTimeofHitsTheCacheBitForBit) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  World::run_one_per_processor(cluster, [](Proc& p) {
    Runtime rt(p);
    if (rt.is_host()) {
      Model model = compute_model();
      const double first = rt.timeof(model, {volumes({90, 10, 50, 30})});
      const auto cold = rt.last_search_stats();
      EXPECT_GT(cold.evaluations, 0);
      EXPECT_GT(cold.cache_misses, 0);
      const double second = rt.timeof(model, {volumes({90, 10, 50, 30})});
      const auto warm = rt.last_search_stats();
      EXPECT_EQ(first, second);  // bit-identical, not just close
      // The repeat replays the same search over an unchanged network: every
      // arrangement it scores was already memoised.
      EXPECT_EQ(warm.cache_misses, 0);
      EXPECT_EQ(warm.cache_hits, warm.evaluations);
      EXPECT_DOUBLE_EQ(warm.hit_rate(), 1.0);
    }
    rt.finalize();
  });
}

TEST(SearchCache, ReconInvalidatesStaleMakespans) {
  // "fading" delivers 400 units/s until t=5, then 5% of that (20 units/s).
  // A timeof prediction made before the slowdown must not survive the recon
  // that measures the new speed.
  hnoc::Cluster cluster =
      hnoc::ClusterBuilder()
          .add("fast0", 100.0)
          .add("fast1", 100.0)
          .add("fading", 400.0, hnoc::LoadProfile({{5.0, 0.05}}))
          .build();
  // Control: a static cluster that always looks like the post-slowdown one.
  hnoc::Cluster slowed = hnoc::ClusterBuilder()
                             .add("fast0", 100.0)
                             .add("fast1", 100.0)
                             .add("fading", 20.0)
                             .build();
  double control = 0.0;
  World::run_one_per_processor(slowed, [&control](Proc& p) {
    Runtime rt(p);
    // Same benchmark as the main world's second recon, so both end up with
    // identical measured speeds (1/elapsed benchmark executions per second).
    rt.recon([](Proc& q) { q.compute(10.0); });
    if (rt.is_host()) {
      Model model = compute_model();
      control = rt.timeof(model, {volumes({10, 10, 1000})});
    }
    rt.finalize();
  });
  ASSERT_GT(control, 0.0);

  World::run_one_per_processor(cluster, [control](Proc& p) {
    Runtime rt(p);
    Model model = compute_model();
    double before = 0.0;
    if (rt.is_host()) {
      before = rt.timeof(model, {volumes({10, 10, 1000})});
    }
    // Advance every process's virtual clock past the t=5 breakpoint, then
    // re-measure. 2500 units: 25s on the fast machines; on "fading", 2000
    // units by t=5 and the rest at 20 units/s.
    p.compute(2500.0);
    rt.recon([](Proc& q) { q.compute(10.0); });
    if (rt.is_host()) {
      // Recon estimates are benchmark executions/second: the 10-unit
      // benchmark at 20 units/s takes 0.5s, so the estimate is 2.
      EXPECT_NEAR(rt.processor_speeds()[2], 2.0, 1e-9);
      const double after = rt.timeof(model, {volumes({10, 10, 1000})});
      EXPECT_GT(after, before);  // the big volume's machine slowed 20x
      // The post-recon prediction matches a fresh runtime that never saw the
      // fast speeds: nothing stale leaked out of the cache. (Tolerance, not
      // bit-equality: the two worlds measure benchmark elapsed time at
      // different absolute clocks, so the speed estimates differ in the last
      // few ulps.)
      EXPECT_NEAR(after, control, 1e-9 * control);
      const auto stats = rt.last_search_stats();
      EXPECT_GT(stats.cache_misses, 0);  // old entries were unusable
    }
    rt.finalize();
  });
}

TEST(SearchCache, SuspectRecoverPathNeverServesStaleSelections) {
  // "turbo" is effectively dead (0.1% speed) until t=20, then delivers its
  // full 1000 units/s. The strict recon marks it suspect; after recovery the
  // mapper must see the new speed, not a cached degraded makespan.
  hnoc::Cluster cluster =
      hnoc::ClusterBuilder()
          .add("fast0", 100.0)
          .add("fast1", 100.0)
          .add("turbo", 1000.0, hnoc::LoadProfile({{0.0, 0.001}, {20.0, 1.0}}))
          .build();
  World::run_one_per_processor(cluster, [](Proc& p) {
    Runtime rt(p);
    Model model = compute_model();
    RetryPolicy strict;
    strict.timeout_s = 0.5;
    rt.recon([](Proc& q) { q.compute(10.0); }, strict);
    // Parent (abstract 0) is pinned to fast0, so give it a tiny volume: the
    // 500-unit node is the one whose placement the recovery must improve.
    double degraded = 0.0;
    if (rt.is_host()) {
      EXPECT_TRUE(rt.processor_suspect(2));
      degraded = rt.timeof(model, {volumes({1, 500})});
    }
    // Pass the t=20 recovery point on every clock (the suspect machine's
    // clock advanced through its failed benchmark attempts already; the
    // barrier inside recon aligns the rest).
    p.compute(2500.0);
    rt.recon([](Proc& q) { q.compute(10.0); });
    if (rt.is_host()) {
      EXPECT_FALSE(rt.processor_suspect(2));
      // 10-unit benchmark at 1000 units/s: 0.01s -> estimate 100.
      EXPECT_NEAR(rt.processor_speeds()[2], 100.0, 1e-9);
      const double healthy = rt.timeof(model, {volumes({1, 500})});
      // With turbo back, the 500-unit block lands on a 10x faster machine.
      EXPECT_LT(healthy, degraded);
    }
    rt.finalize();
  });
}

TEST(SearchCache, DisablingTheCacheStillSelectsIdentically) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  double cached_time = 0.0;
  World::run_one_per_processor(cluster, [&cached_time](Proc& p) {
    Runtime rt(p);
    if (rt.is_host()) {
      cached_time = rt.timeof(compute_model(), {volumes({90, 10, 50, 30})});
    }
    rt.finalize();
  });
  RuntimeConfig no_cache;
  no_cache.estimate_cache = false;
  World::run_one_per_processor(cluster, [&cached_time, no_cache](Proc& p) {
    Runtime rt(p, no_cache);
    if (rt.is_host()) {
      const double uncached = rt.timeof(compute_model(), {volumes({90, 10, 50, 30})});
      EXPECT_EQ(uncached, cached_time);
      const auto stats = rt.last_search_stats();
      EXPECT_EQ(stats.cache_hits, 0);
      EXPECT_EQ(stats.cache_misses, 0);
      EXPECT_GT(stats.evaluations, 0);
    }
    rt.finalize();
  });
}

TEST(SearchCache, SearchThreadsDoNotChangeTheSelection) {
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  std::vector<double> times;
  for (int threads : {1, 2, 8}) {
    RuntimeConfig config;
    config.mapper = std::make_shared<map::ExhaustiveMapper>();
    config.search_threads = threads;
    double t = 0.0;
    World::run_one_per_processor(cluster, [&t, config, threads](Proc& p) {
      Runtime rt(p, config);
      if (rt.is_host()) {
        t = rt.timeof(compute_model(), {volumes({90, 10, 50, 30, 70})});
        EXPECT_EQ(rt.last_search_stats().threads, threads);
      }
      rt.finalize();
    });
    times.push_back(t);
  }
  EXPECT_EQ(times[0], times[1]);  // bit-identical across thread counts
  EXPECT_EQ(times[0], times[2]);
}

TEST(SearchCache, GroupCreateAfterTimeofReusesTheSearch) {
  // The paper's canonical pattern (Figure 8): estimate with HMPI_Timeof,
  // then create the group. The second search replays the first over an
  // unchanged network, so it should be answered almost entirely from cache.
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  World::run_one_per_processor(cluster, [](Proc& p) {
    Runtime rt(p);
    Model model = compute_model();
    const ParamValue params = volumes({90, 10, 50, 30});
    if (rt.is_host()) {
      (void)rt.timeof(model, {params});
    }
    std::optional<Group> group = rt.group_create(model, {params});
    if (rt.is_host()) {
      const auto stats = rt.last_search_stats();
      EXPECT_GT(stats.evaluations, 0);
      EXPECT_GT(stats.hit_rate(), 0.5);
    }
    if (group && group->valid()) rt.group_free(*group);
    rt.finalize();
  });
}

TEST(SearchCache, MapperSearchTraceEventAndCApiStats) {
  mp::Tracer tracer;
  World::Options options;
  options.tracer = &tracer;
  hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  World::run_one_per_processor(
      cluster,
      [](Proc& p) {
        HMPI_Init(p);
        if (HMPI_Is_host()) {
          Model model = compute_model();
          std::vector<ParamValue> params = {volumes({90, 10, 50, 30})};
          (void)HMPI_Timeof(model, params);
          const map::SearchStats stats = HMPI_Get_mapper_stats();
          EXPECT_GT(stats.evaluations, 0);
          EXPECT_GE(stats.wall_seconds, 0.0);
          EXPECT_EQ(stats.threads, 1);  // default config searches inline
        }
        HMPI_Finalize(0);
      },
      options);
  bool saw_search = false;
  for (const telemetry::CausalEvent& e : tracer.events()) {
    if (e.kind == telemetry::CausalEvent::Kind::kMapperSearch) {
      saw_search = true;
      EXPECT_EQ(e.rank, 0);
      EXPECT_GT(telemetry::event_arg(e, "evaluations"), 0.0);
      EXPECT_EQ(telemetry::event_arg(e, "threads"), 1.0);
      EXPECT_GE(telemetry::event_arg(e, "wall_seconds"), 0.0);
      const double hit_rate = telemetry::event_arg(e, "hit_rate");
      EXPECT_GE(hit_rate, 0.0);
      EXPECT_LE(hit_rate, 1.0);
      // The CSV's legacy column: the hit rate in whole percent.
      EXPECT_EQ(e.tag, static_cast<int>(hit_rate * 100.0));
    }
  }
  EXPECT_TRUE(saw_search);
}

}  // namespace
}  // namespace hmpi
