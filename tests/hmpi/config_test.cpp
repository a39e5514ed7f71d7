// RuntimeConfig behaviour: pluggable mappers, estimate options, the
// HMPI_COLL_<OP> knobs and the one rule that resolves a collective.
#include <gtest/gtest.h>

#include <cctype>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "hmpi/hmpi_c.hpp"
#include "hmpi/runtime.hpp"
#include "hnoc/cluster.hpp"
#include "support/error.hpp"
#include "telemetry/metrics.hpp"

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

/// The world policy a runtime resolved from `configured` and the
/// HMPI_COLL_<OP> environment.
coll::CollPolicy resolve_coll(const coll::CollPolicy& configured) {
  coll::CollPolicy out;
  World::run_one_per_processor(hnoc::testbeds::homogeneous(2), [&](Proc& p) {
    RuntimeConfig config;
    config.coll = configured;
    Runtime rt(p, config);
    p.world_comm().barrier();
    rt.recon([](Proc& q) { q.compute(1.0); });
    if (rt.is_host()) out = rt.coll_policy();
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
    coll::CollPolicy configured;
    configured.set_choice(op, 1);
    {
      ScopedEnv env(var.c_str(), upper(coll::algo_name(op, last)).c_str());
      EXPECT_EQ(resolve_coll(configured).choice(op), last) << var;
    }
    {
      ScopedEnv env(var.c_str(), "Auto");
      EXPECT_EQ(resolve_coll(configured).choice(op), 0) << var;
    }
    {
      // An empty value keeps the configured algorithm.
      ScopedEnv env(var.c_str(), "");
      EXPECT_EQ(resolve_coll(configured).choice(op), 1) << var;
    }
  }
  ScopedEnv bcast("HMPI_COLL_BCAST", "Chain");
  EXPECT_EQ(resolve_coll({}).bcast, coll::BcastAlgo::kChain);
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

/// Runs `body` on every process of the 9-machine EM3D network with the world
/// pinning bcast to chain, and returns how many bcast members ran each
/// algorithm.
std::vector<double> bcast_runs_under_a_chain_pin(
    const std::function<void(Proc&)>& body) {
  World::Options options;
  options.coll.bcast = coll::BcastAlgo::kChain;
  const auto count = [](const telemetry::MetricsRegistry::Snapshot& snapshot) {
    std::vector<double> runs;
    for (int a = 1; a <= coll::algo_count(coll::CollOp::kBcast); ++a) {
      runs.push_back(snapshot.counter_value(
          std::string("coll.bcast.") + coll::algo_name(coll::CollOp::kBcast, a)));
    }
    return runs;
  };
  const std::vector<double> before = count(telemetry::metrics().snapshot());
  World::run_one_per_processor(hnoc::testbeds::paper_em3d_network(), body,
                               options);
  std::vector<double> runs = count(telemetry::metrics().snapshot());
  for (std::size_t a = 0; a < runs.size(); ++a) runs[a] -= before[a];
  return runs;
}

void world_bcast(Proc& p) {
  std::vector<double> data(512, 1.0);
  p.world_comm().bcast(std::span<double>(data), 0);
}

const int kBcastFlat = static_cast<int>(coll::BcastAlgo::kFlat);
const int kBcastChain = static_cast<int>(coll::BcastAlgo::kChain);

/// Bcast runs per algorithm (flat, binomial, chain, two_level) when every
/// one of the 9 members ran `algo`.
std::vector<double> all_members_ran(int algo) {
  std::vector<double> runs(
      static_cast<std::size_t>(coll::algo_count(coll::CollOp::kBcast)), 0.0);
  runs[static_cast<std::size_t>(algo - 1)] = 9.0;
  return runs;
}

// A world pin is what a world bcast runs, so it is what the runtime reports
// it would run, unpriced.
TEST(CollResolution, SelectionReportsTheWorldPinThatRuns) {
  const std::vector<double> runs = bcast_runs_under_a_chain_pin([](Proc& p) {
    HMPI_Init(p);
    const Runtime::CollSelection selection =
        capi::current()->coll_selection(coll::CollOp::kBcast, 4096);
    EXPECT_EQ(selection.algo, kBcastChain);
    EXPECT_LT(selection.predicted_s, 0.0);
    double predicted_s = 0.0;
    EXPECT_EQ(HMPI_Coll_get_selection(coll::CollOp::kBcast, 4096, &predicted_s),
              std::string_view("chain"));
    EXPECT_LT(predicted_s, 0.0);
    world_bcast(p);
    HMPI_Finalize(0);
  });
  EXPECT_EQ(runs, all_members_ran(kBcastChain));
}

// coll_set_policy writes the one world policy, so it replaces a pin the
// world was created with: the bcast after it runs what it set.
TEST(CollResolution, SetPolicyReplacesTheWorldPin) {
  const std::vector<double> runs = bcast_runs_under_a_chain_pin([](Proc& p) {
    Runtime rt(p);
    EXPECT_EQ(rt.coll_policy().bcast, coll::BcastAlgo::kChain);
    p.world_comm().barrier();  // every process reads the pin before a write
    coll::CollPolicy flat;
    flat.bcast = coll::BcastAlgo::kFlat;
    rt.coll_set_policy(flat);
    EXPECT_EQ(rt.coll_policy().bcast, coll::BcastAlgo::kFlat);
    EXPECT_EQ(rt.coll_selection(coll::CollOp::kBcast, 4096).algo, kBcastFlat);
    world_bcast(p);
    rt.finalize();
  });
  EXPECT_EQ(runs, all_members_ran(kBcastFlat));
}

}  // namespace
}  // namespace hmpi
