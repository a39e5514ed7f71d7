// RuntimeConfig behaviour: pluggable mappers, estimate options and the
// HMPI_COLL_* knobs.
#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "coll/tuner.hpp"
#include "hmpi/runtime.hpp"
#include "hnoc/cluster.hpp"
#include "support/error.hpp"

#include "../scoped_env.hpp"

namespace hmpi {
namespace {

using mp::Proc;
using mp::World;
using pmdl::InstanceBuilder;
using pmdl::Model;
using pmdl::ParamValue;

Model comm_bound_model() {
  return Model::from_factory("comm-bound", 0, [](std::span<const ParamValue>) {
    InstanceBuilder b("comm-bound");
    b.shape({2});
    b.node_volume(0, 1.0);
    b.node_volume(1, 1.0);
    b.link(0, 1, 1e6);
    b.scheme([](pmdl::ScheduleSink& s) {
      const long long a[1] = {0}, c[1] = {1};
      s.transfer(a, c, 100.0);
      s.compute(c, 100.0);
    });
    return b.build();
  });
}

/// The landscape from the mapper tests where greedy picks the raw-speed
/// machine behind a terrible link and swap-refine picks the good link.
hnoc::Cluster tricky_cluster() {
  return hnoc::ClusterBuilder()
      .add("parent", 10.0)
      .add("goodlink", 10.0)
      .add("fastbadlink", 11.0)
      .network(1e-4, 1e7)
      .symmetric_link_override(0, 2, 0.5, 1e5)
      .build();
}

TEST(RuntimeConfig, MapperChoiceChangesSelection) {
  Model model = comm_bound_model();

  auto member_with = [&](std::shared_ptr<const map::Mapper> mapper) {
    int chosen = -1;
    hnoc::Cluster cluster = tricky_cluster();
    World::run_one_per_processor(cluster, [&](Proc& p) {
      RuntimeConfig config;
      config.mapper = mapper;
      Runtime rt(p, config);
      auto group = rt.group_create(model, {});
      if (group && rt.is_host()) chosen = group->members()[1];
      if (group) rt.group_free(*group);
      rt.finalize();
    });
    return chosen;
  };

  EXPECT_EQ(member_with(std::make_shared<map::GreedyMapper>()), 2);
  EXPECT_EQ(member_with(std::make_shared<map::SwapRefineMapper>()), 1);
}

TEST(RuntimeConfig, DefaultMapperIsLinkAware) {
  Model model = comm_bound_model();
  hnoc::Cluster cluster = tricky_cluster();
  World::run_one_per_processor(cluster, [&](Proc& p) {
    Runtime rt(p);  // default config
    auto group = rt.group_create(model, {});
    if (group && rt.is_host()) {
      EXPECT_EQ(group->members()[1], 1);
    }
    if (group) rt.group_free(*group);
    rt.finalize();
  });
}

TEST(RuntimeConfig, EstimateOverheadsFlowIntoPredictions) {
  Model model = comm_bound_model();
  hnoc::Cluster cluster = hnoc::testbeds::homogeneous(2, 10.0);
  double cheap = 0.0, costly = 0.0;
  for (double overhead : {0.0, 0.5}) {
    World::run_one_per_processor(cluster, [&](Proc& p) {
      RuntimeConfig config;
      config.estimate.send_overhead_s = overhead;
      config.estimate.recv_overhead_s = overhead;
      Runtime rt(p, config);
      double predicted = 0.0;
      if (rt.is_host()) predicted = rt.timeof(model, {});
      auto group = rt.group_create(model, {});
      if (group && rt.is_host()) {
        (overhead == 0.0 ? cheap : costly) = predicted;
      }
      if (group) rt.group_free(*group);
      rt.finalize();
    });
  }
  EXPECT_GT(costly, cheap + 0.4);
}

/// What a runtime resolved from `coll` and the environment: its per-op
/// policy, whether its tuner prices a barrier (HMPI_COLL_TUNER) and whether
/// a measured barrier reached the tuner's ranking at recon
/// (HMPI_COLL_FEEDBACK).
struct ResolvedColl {
  coll::CollPolicy policy;
  bool priced = false;
  bool fed_back = false;
};

ResolvedColl resolve_coll(const CollConfig& coll) {
  ResolvedColl out;
  World::run_one_per_processor(hnoc::testbeds::homogeneous(2), [&](Proc& p) {
    RuntimeConfig config;
    config.coll = coll;
    Runtime rt(p, config);
    p.world_comm().barrier();
    rt.recon([](Proc& q) { q.compute(1.0); });
    if (rt.is_host()) {
      out.policy = rt.coll_policy();
      const Runtime::CollSelection barrier =
          rt.coll_selection(coll::CollOp::kBarrier, 0);
      out.priced = barrier.predicted_s >= 0.0;
      const auto* tuner =
          dynamic_cast<const coll::CollTuner*>(p.world().coll_selector());
      out.fed_back = tuner != nullptr &&
                     tuner->feedback_ratio(coll::CollOp::kBarrier,
                                           barrier.algo) > 0.0;
    }
    rt.finalize();
  });
  return out;
}

std::string upper(std::string text) {
  for (char& c : text) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return text;
}

TEST(CollEnv, AlgorithmNamesInAnyCaseOverrideTheConfig) {
  for (int o = 0; o < coll::kNumCollOps; ++o) {
    const auto op = static_cast<coll::CollOp>(o);
    const std::string var = "HMPI_COLL_" + upper(coll::op_name(op));
    const int last = coll::algo_count(op);
    CollConfig configured;
    configured.policy.set_choice(op, 1);
    {
      ScopedEnv env(var.c_str(), upper(coll::algo_name(op, last)).c_str());
      EXPECT_EQ(resolve_coll(configured).policy.choice(op), last) << var;
    }
    {
      ScopedEnv env(var.c_str(), "Auto");
      EXPECT_EQ(resolve_coll(configured).policy.choice(op), 0) << var;
    }
    {
      // An empty value keeps the configured algorithm.
      ScopedEnv env(var.c_str(), "");
      EXPECT_EQ(resolve_coll(configured).policy.choice(op), 1) << var;
    }
  }
  ScopedEnv bcast("HMPI_COLL_BCAST", "Chain");
  EXPECT_EQ(resolve_coll({}).policy.bcast, coll::BcastAlgo::kChain);
}

TEST(CollEnv, UnknownAlgorithmThrowsNamingTheAcceptedNames) {
  for (int o = 0; o < coll::kNumCollOps; ++o) {
    const auto op = static_cast<coll::CollOp>(o);
    const std::string var = "HMPI_COLL_" + upper(coll::op_name(op));
    std::string names = "auto";
    for (int a = 1; a <= coll::algo_count(op); ++a) {
      names += std::string("|") + coll::algo_name(op, a);
    }
    ScopedEnv env(var.c_str(), "chian");
    try {
      resolve_coll({});
      ADD_FAILURE() << var << "=chian was accepted";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(var + "='chian'"), std::string::npos) << what;
      EXPECT_NE(what.find(names), std::string::npos) << what;
    }
  }
}

TEST(CollEnv, TunerAndFeedbackAreFlags) {
  const ResolvedColl defaults = resolve_coll({});
  EXPECT_TRUE(defaults.priced);
  EXPECT_FALSE(defaults.fed_back);
  for (const char* off : {"off", "0", "FALSE", "No"}) {
    ScopedEnv tuner("HMPI_COLL_TUNER", off);
    EXPECT_FALSE(resolve_coll({}).priced) << off;
  }
  for (const char* on : {"on", "1", "TRUE", "Yes"}) {
    ScopedEnv feedback("HMPI_COLL_FEEDBACK", on);
    EXPECT_TRUE(resolve_coll({}).fed_back) << on;
  }
  {
    // An empty value keeps the configured flags.
    CollConfig configured;
    configured.tuner = false;
    configured.feedback = true;
    ScopedEnv tuner("HMPI_COLL_TUNER", "");
    ScopedEnv feedback("HMPI_COLL_FEEDBACK", "");
    const ResolvedColl got = resolve_coll(configured);
    EXPECT_FALSE(got.priced);
    CollConfig with_tuner = configured;
    with_tuner.tuner = true;
    EXPECT_TRUE(resolve_coll(with_tuner).fed_back);
  }
  for (const char* var : {"HMPI_COLL_TUNER", "HMPI_COLL_FEEDBACK"}) {
    ScopedEnv env(var, "maybe");
    EXPECT_THROW(resolve_coll({}), InvalidArgument) << var;
  }
}

}  // namespace
}  // namespace hmpi
