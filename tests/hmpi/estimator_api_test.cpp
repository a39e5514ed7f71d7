// The estimator's runtime surface: Timeof_batch, the estimator-stats
// accessors, and group_create estimates checked against the reference
// interpreter, at both the C++ and the paper-style C layers
// (docs/estimator.md).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "hmpi/hmpi_c.hpp"
#include "hmpi/runtime.hpp"
#include "hnoc/cluster.hpp"
#include "mpsim/trace.hpp"
#include "reference/estimator.hpp"

namespace hmpi {
namespace {

using mp::Proc;
using mp::World;
using pmdl::InstanceBuilder;
using pmdl::Model;
using pmdl::ParamValue;

/// Ring pipeline parameterised on p: enough comm structure that the
/// selection depends on links, so an estimator bug that changes scores
/// shows up as a different group.
Model ring_model() {
  return Model::from_factory("ring", 1, [](std::span<const ParamValue> ps) {
    const long long p = std::get<long long>(ps[0]);
    InstanceBuilder b("ring");
    b.shape({p});
    for (long long a = 0; a < p; ++a) {
      b.node_volume(a, 50.0 + 10.0 * static_cast<double>(a));
      if (p > 1) b.link(a, (a + 1) % p, 2e5);
    }
    b.scheme([p](pmdl::ScheduleSink& s) {
      for (long long a = 0; a < p; ++a) {
        const long long c[1] = {a};
        s.compute(c, 100.0);
        if (p > 1) {
          const long long d[1] = {(a + 1) % p};
          s.transfer(c, d, 100.0);
        }
      }
    });
    return b.build();
  });
}

/// Heterogeneous speeds and one deliberately bad link, so arrangements are
/// far from interchangeable.
hnoc::Cluster lumpy_cluster() {
  return hnoc::ClusterBuilder()
      .add("parent", 10.0)
      .add("fast", 20.0)
      .add("faster", 25.0)
      .add("slow", 5.0)
      .add("medium", 12.0)
      .network(1e-4, 1e7)
      .symmetric_link_override(1, 2, 0.05, 1e5)
      .build();
}

/// Runs `body` at the host of a fresh 5-machine world.
template <typename Fn>
void at_host(Fn&& body, RuntimeConfig config = RuntimeConfig()) {
  hnoc::Cluster cluster = lumpy_cluster();
  World::run_one_per_processor(cluster, [&](Proc& p) {
    Runtime rt(p, config);
    if (rt.is_host()) body(rt);
    rt.finalize();
  });
}

TEST(TimeofBatch, MatchesIndividualTimeofBitForBit) {
  Model model = ring_model();
  at_host([&](Runtime& rt) {
    std::vector<std::vector<ParamValue>> sets;
    std::vector<double> individual;
    for (long long p = 2; p <= 4; ++p) {
      sets.push_back({pmdl::scalar(p)});
      individual.push_back(rt.timeof(model, {pmdl::scalar(p)}));
    }
    const std::vector<double> batch = rt.timeof_batch(model, sets);
    ASSERT_EQ(batch.size(), individual.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch[i], individual[i]) << "set " << i;
    }
  });
}

TEST(TimeofBatch, AggregatesOneStatsRecordAcrossTheBatch) {
  Model model = ring_model();
  at_host([&](Runtime& rt) {
    std::vector<std::vector<ParamValue>> sets;
    for (long long p = 2; p <= 4; ++p) sets.push_back({pmdl::scalar(p)});
    rt.timeof_batch(model, sets);
    const map::SearchStats& stats = rt.last_search_stats();
    EXPECT_GT(stats.evaluations, 0);
    // Three distinct instances were priced by the kernel in one search
    // record.
    EXPECT_GT(stats.compiled_evaluations, 0);
  });
}

TEST(EstimatorStats, CountsPlanCompilesAndKernelEvaluations) {
  Model model = ring_model();
  at_host([&](Runtime& rt) {
    const Runtime::EstimatorStats before = rt.estimator_stats();
    EXPECT_EQ(before.compiled_evaluations, 0);

    rt.timeof(model, {pmdl::scalar(3)});
    const long long first = rt.estimator_stats().compiled_evaluations;
    rt.timeof(model, {pmdl::scalar(3)});  // same instance: plan-cache hit

    const Runtime::EstimatorStats after = rt.estimator_stats();
    EXPECT_GE(after.plans_compiled, 1);
    EXPECT_GE(after.plan_cache_hits, 1);
    EXPECT_GT(first, 0);
    // The repeat search re-reads the first one's estimate-cache entries, so
    // the kernel prices nothing new.
    EXPECT_EQ(after.compiled_evaluations, first);
  });
}

TEST(EstimatorReference, GroupCreateEstimateIsTheReferencePrice) {
  // Across search threads and the estimate cache, group_create picks one
  // roster, and its estimate is the reference interpreter's price of that
  // roster's machines at the runtime's speeds.
  Model model = ring_model();
  const std::vector<ParamValue> params{pmdl::scalar(4)};
  const pmdl::ModelInstance instance = model.instantiate(params);

  struct Outcome {
    std::vector<int> members;
    double estimated = 0.0;
    double reference = -1.0;
  };
  auto create_with = [&](int threads, bool cached) {
    Outcome out;
    hnoc::Cluster cluster = lumpy_cluster();
    World::run_one_per_processor(cluster, [&](Proc& p) {
      RuntimeConfig config;
      config.search_threads = threads;
      config.estimate_cache = cached;
      Runtime rt(p, config);
      auto group = rt.group_create(model, params);
      if (group && rt.is_host()) {
        out.members = group->members();
        out.estimated = group->estimated_time();
        hnoc::NetworkModel net(p.cluster());
        const std::vector<double> speeds = rt.processor_speeds();
        for (std::size_t i = 0; i < speeds.size(); ++i) {
          net.set_speed(static_cast<int>(i), speeds[i]);
        }
        std::vector<int> mapping;
        for (int r : out.members) mapping.push_back(p.world().processor_of(r));
        out.reference = est::reference::estimate_time(instance, mapping, net,
                                                      config.estimate);
      }
      if (group) rt.group_free(*group);
      rt.finalize();
    });
    return out;
  };

  const Outcome baseline = create_with(1, true);
  ASSERT_FALSE(baseline.members.empty());
  EXPECT_EQ(baseline.estimated, baseline.reference);
  for (int threads : {1, 4}) {
    for (bool cached : {true, false}) {
      const Outcome got = create_with(threads, cached);
      EXPECT_EQ(got.members, baseline.members);
      EXPECT_EQ(got.estimated, baseline.estimated);
      EXPECT_EQ(got.estimated, got.reference);
    }
  }
}

TEST(EstimatorTrace, CompileEmitsAnInstantWhenATracerIsAttached) {
  Model model = ring_model();
  mp::Tracer tracer;
  World::Options options;
  options.tracer = &tracer;
  hnoc::Cluster cluster = lumpy_cluster();
  World::run_one_per_processor(
      cluster,
      [&](Proc& p) {
        Runtime rt(p);
        if (rt.is_host()) rt.timeof(model, {pmdl::scalar(3)});
        rt.finalize();
      },
      options);
  bool saw_compile = false;
  for (const telemetry::CausalEvent& e : tracer.events()) {
    if (e.kind != telemetry::CausalEvent::Kind::kEstCompile) continue;
    saw_compile = true;
    EXPECT_GT(telemetry::event_arg(e, "ops"), 0.0);
    EXPECT_GE(telemetry::event_arg(e, "seconds"), 0.0);
  }
  EXPECT_TRUE(saw_compile);
}

TEST(CApiEstimator, BatchAndStatsThroughTheCVeneer) {
  Model model = ring_model();
  hnoc::Cluster cluster = lumpy_cluster();
  World::run_one_per_processor(cluster, [&](Proc& p) {
    HMPI_Init(p);
    if (HMPI_Is_host()) {
      const std::vector<std::vector<ParamValue>> sets{
          {pmdl::scalar(2)}, {pmdl::scalar(3)}};
      const std::vector<double> batch = HMPI_Timeof_batch(model, sets);
      ASSERT_EQ(batch.size(), 2u);
      EXPECT_EQ(batch[0], HMPI_Timeof(model, sets[0]));
      EXPECT_EQ(batch[1], HMPI_Timeof(model, sets[1]));

      const Runtime::EstimatorStats stats = HMPI_Get_estimator_stats();
      EXPECT_GE(stats.plans_compiled, 1);
      EXPECT_GT(stats.compiled_evaluations, 0);
    }
    HMPI_Finalize(0);
  });
}

}  // namespace
}  // namespace hmpi
