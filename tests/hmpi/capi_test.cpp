// Tests of the paper-style C interface (Figures 5/8 call shapes).
#include "hmpi/hmpi_c.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "hnoc/cluster.hpp"

namespace {

using hmpi::mp::Proc;
using hmpi::mp::World;
using hmpi::pmdl::InstanceBuilder;
using hmpi::pmdl::Model;
using hmpi::pmdl::ParamValue;

Model tiny_model() {
  return Model::from_factory("tiny", 1, [](std::span<const ParamValue> ps) {
    const long long p = std::get<long long>(ps[0]);
    InstanceBuilder b("tiny");
    b.shape({p});
    for (int a = 0; a < p; ++a) b.node_volume(a, 10.0);
    b.scheme([p](hmpi::pmdl::ScheduleSink& s) {
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

TEST(CApi, PaperLifecycle) {
  hmpi::hnoc::Cluster cluster = hmpi::hnoc::testbeds::homogeneous(4, 50.0);
  World::run_one_per_processor(cluster, [](Proc& p) {
    HMPI_Init(p);
    EXPECT_EQ(HMPI_Is_host(), p.rank() == 0);
    EXPECT_EQ(HMPI_Is_free(), p.rank() != 0);

    HMPI_Recon([](Proc& q) { q.compute(1.0); });

    Model model = tiny_model();
    const std::vector<ParamValue> params{hmpi::pmdl::scalar(3)};
    double predicted = 0.0;
    if (HMPI_Is_host()) {
      predicted = HMPI_Timeof(model, params);
      EXPECT_GT(predicted, 0.0);
    }

    HMPI_Group gid;
    if (HMPI_Is_host() || HMPI_Is_free()) {
      HMPI_Group_create(&gid, model, params);
    }
    if (HMPI_Is_member(gid)) {
      const hmpi::mp::Comm* comm = HMPI_Get_comm(gid);
      ASSERT_NE(comm, nullptr);
      EXPECT_EQ(HMPI_Group_size(gid), 3);
      EXPECT_EQ(HMPI_Group_rank(gid), comm->rank());
      int in = 1, out = 0;
      comm->allreduce(std::span<const int>(&in, 1), std::span<int>(&out, 1),
                      [](int a, int b) { return a + b; });
      EXPECT_EQ(out, 3);
    }
    if (HMPI_Is_member(gid)) HMPI_Group_free(&gid);
    EXPECT_FALSE(HMPI_Is_member(gid));
    HMPI_Finalize(0);
  });
}

TEST(CApi, RoutinesBeforeInitThrow) {
  hmpi::hnoc::Cluster cluster = hmpi::hnoc::testbeds::homogeneous(1);
  EXPECT_THROW(
      World::run_one_per_processor(cluster, [](Proc&) { HMPI_Is_host(); }),
      hmpi::RuntimeError);
}

TEST(CApi, DoubleInitThrows) {
  hmpi::hnoc::Cluster cluster = hmpi::hnoc::testbeds::homogeneous(1);
  EXPECT_THROW(World::run_one_per_processor(cluster,
                                            [](Proc& p) {
                                              HMPI_Init(p);
                                              HMPI_Init(p);
                                            }),
               hmpi::RuntimeError);
}

TEST(CApi, FinalizeWithErrorCodeThrows) {
  hmpi::hnoc::Cluster cluster = hmpi::hnoc::testbeds::homogeneous(1);
  EXPECT_THROW(World::run_one_per_processor(cluster,
                                            [](Proc& p) {
                                              HMPI_Init(p);
                                              HMPI_Finalize(1);
                                            }),
               hmpi::InvalidArgument);
}

TEST(CApi, ReconWithTimeoutAndDegradedQueriesOnHealthyRun) {
  // Fault-tolerance entry points on a healthy network: no timeout fires, no
  // group is degraded, respawn-related accessors stay callable.
  hmpi::hnoc::Cluster cluster = hmpi::hnoc::testbeds::homogeneous(4, 50.0);
  World::run_one_per_processor(cluster, [](Proc& p) {
    HMPI_Init(p);
    HMPI_Recon_with_timeout([](Proc& q) { q.compute(1.0); },
                            /*timeout_s=*/100.0, /*max_attempts=*/2);

    Model model = tiny_model();
    const std::vector<ParamValue> params{hmpi::pmdl::scalar(3)};
    HMPI_Group gid;
    HMPI_Group_create(&gid, model, params);
    if (HMPI_Is_member(gid)) {
      EXPECT_EQ(HMPI_Group_is_degraded(gid), 0);
      EXPECT_DOUBLE_EQ(HMPI_Group_degraded_delta(gid), 0.0);
      HMPI_Group_free(&gid);
    }
    HMPI_Finalize(0);
  });
}

TEST(CApi, DegradedQueriesRequireLiveGroup) {
  hmpi::hnoc::Cluster cluster = hmpi::hnoc::testbeds::homogeneous(1);
  World::run_one_per_processor(cluster, [](Proc& p) {
    HMPI_Init(p);
    HMPI_Group gid;
    EXPECT_THROW(HMPI_Group_is_degraded(gid), hmpi::InvalidArgument);
    EXPECT_THROW(HMPI_Group_degraded_delta(gid), hmpi::InvalidArgument);
    EXPECT_THROW(HMPI_Group_fail(&gid), hmpi::InvalidArgument);
    EXPECT_THROW(HMPI_Group_respawn(&gid, tiny_model(), {}), hmpi::InvalidArgument);
    HMPI_Finalize(0);
  });
}

TEST(CApi, GroupAccessorsRequireLiveGroup) {
  hmpi::hnoc::Cluster cluster = hmpi::hnoc::testbeds::homogeneous(1);
  World::run_one_per_processor(cluster, [](Proc& p) {
    HMPI_Init(p);
    HMPI_Group gid;
    EXPECT_FALSE(HMPI_Is_member(gid));
    EXPECT_THROW(HMPI_Group_rank(gid), hmpi::InvalidArgument);
    EXPECT_THROW(HMPI_Group_size(gid), hmpi::InvalidArgument);
    EXPECT_THROW(HMPI_Get_comm(gid), hmpi::InvalidArgument);
    EXPECT_THROW(HMPI_Group_free(&gid), hmpi::InvalidArgument);
    HMPI_Finalize(0);
  });
}

/// One entry point called with arguments it must reject. `call` returns
/// the routine's status code (0 for routines without one); `code` marks a
/// routine whose documented failure is a -1 return rather than an error.
struct Misuse {
  std::string what;
  std::function<int()> call;
  bool code = false;
};

/// Wraps a routine without a status code.
template <typename F>
std::function<int()> no_code(F f) {
  return [f] {
    f();
    return 0;
  };
}

/// Every misuse must throw hmpi::Error or, for a `code` routine, return -1;
/// none may succeed silently. `expect`, when set, must occur in the
/// message of a RuntimeError (an InvalidArgument must say "not a live
/// group", the one argument these rows get wrong).
void expect_rejected(const std::vector<Misuse>& table, const std::string& row,
                     const std::string& expect = "") {
  for (const Misuse& m : table) {
    try {
      const int status = m.call();
      EXPECT_TRUE(m.code && status == -1)
          << row << ": " << m.what << " succeeded (returned " << status << ")";
    } catch (const hmpi::RuntimeError& e) {
      EXPECT_NE(std::string(e.what()).find(expect), std::string::npos)
          << row << ": " << m.what << " threw \"" << e.what() << "\"";
    } catch (const hmpi::InvalidArgument& e) {
      EXPECT_TRUE(expect.empty() || std::string(e.what()).find(
                                        "not a live group") != std::string::npos)
          << row << ": " << m.what << " threw \"" << e.what() << "\"";
    } catch (const hmpi::Error& e) {
      EXPECT_TRUE(expect.empty())
          << row << ": " << m.what << " threw \"" << e.what() << "\"";
    }
  }
}

/// Every entry point that takes a group, called on the empty group `empty`.
/// HMPI_Is_member (false for an empty group) is defined everywhere and is
/// left out.
std::vector<Misuse> group_routines(HMPI_Group& empty) {
  const Model model = tiny_model();
  const std::vector<ParamValue> params{hmpi::pmdl::scalar(1)};
  HMPI_Group* gid = &empty;
  return {
      {"HMPI_Group_free", no_code([gid] { HMPI_Group_free(gid); })},
      {"HMPI_Group_is_degraded", no_code([gid] { HMPI_Group_is_degraded(*gid); })},
      {"HMPI_Group_degraded_delta",
       no_code([gid] { HMPI_Group_degraded_delta(*gid); })},
      {"HMPI_Group_fail", no_code([gid] { HMPI_Group_fail(gid); })},
      {"HMPI_Group_respawn", no_code([gid, model, params] {
         HMPI_Group_respawn(gid, model, params);
       })},
      {"HMPI_Group_migrate", no_code([gid, model, params] {
         HMPI_Group_migrate(gid, model, params);
       })},
      {"HMPI_Adapt_observe", no_code([gid] { HMPI_Adapt_observe(*gid, 1.0); })},
      {"HMPI_Adapt_migrate", no_code([gid, model, params] {
         HMPI_Adapt_migrate(gid, model, params);
       })},
      {"HMPI_Group_rank", no_code([gid] { HMPI_Group_rank(*gid); })},
      {"HMPI_Group_size", no_code([gid] { HMPI_Group_size(*gid); })},
      {"HMPI_Get_comm", no_code([gid] { HMPI_Get_comm(*gid); })},
      {"HMPI_Group_topology", no_code([gid] { HMPI_Group_topology(*gid); })},
      {"HMPI_Group_coordof", no_code([gid] { HMPI_Group_coordof(*gid, 0); })},
      {"HMPI_Group_performances",
       no_code([gid] { HMPI_Group_performances(*gid); })},
      {"HMPI_Group_observed", no_code([gid] { HMPI_Group_observed(*gid, 1.0); })},
  };
}

/// Every entry point but HMPI_Init: the group routines above and those
/// that need only the runtime. HMPI_Metrics_dump and HMPI_Prediction_error
/// read process-wide telemetry, also from a host thread, so they are
/// defined everywhere and are left out.
std::vector<Misuse> every_entry_point(HMPI_Group& empty, std::ostream& sink) {
  const auto bench = [](Proc& q) { q.compute(1.0); };
  const Model model = tiny_model();
  const std::vector<ParamValue> params{hmpi::pmdl::scalar(1)};
  HMPI_Group* gid = &empty;
  std::ostream* os = &sink;
  std::vector<Misuse> calls = group_routines(empty);
  calls.insert(
      calls.end(),
      {
          {"HMPI_Finalize", no_code([] { HMPI_Finalize(0); })},
          {"HMPI_Is_host", no_code([] { HMPI_Is_host(); })},
          {"HMPI_Is_free", no_code([] { HMPI_Is_free(); })},
          {"HMPI_Comm_world", no_code([] { HMPI_Comm_world(); })},
          {"HMPI_Recon", no_code([bench] { HMPI_Recon(bench); })},
          {"HMPI_Recon_with_timeout",
           no_code([bench] { HMPI_Recon_with_timeout(bench, 1.0); })},
          {"HMPI_Timeof",
           no_code([model, params] { HMPI_Timeof(model, params); })},
          {"HMPI_Timeof_batch", no_code([model, params] {
             const std::vector<std::vector<ParamValue>> sets{params};
             HMPI_Timeof_batch(model, sets);
           })},
          {"HMPI_Group_create", no_code([gid, model, params] {
             HMPI_Group_create(gid, model, params);
           })},
          {"HMPI_Adapt_enabled", no_code([] { HMPI_Adapt_enabled(); })},
          {"HMPI_Adapt_quiesce", no_code([] { HMPI_Adapt_quiesce(); })},
          {"HMPI_Adapt_quiesced", no_code([] { HMPI_Adapt_quiesced(); })},
          {"HMPI_Adapt_ledger_json",
           no_code([os] { HMPI_Adapt_ledger_json(*os); })},
          {"HMPI_Get_processors_info",
           no_code([] { HMPI_Get_processors_info(); })},
          {"HMPI_Get_mapper_stats", no_code([] { HMPI_Get_mapper_stats(); })},
          {"HMPI_Get_estimator_stats",
           no_code([] { HMPI_Get_estimator_stats(); })},
          {"HMPI_Coll_set_policy",
           [] {
             return HMPI_Coll_set_policy(hmpi::coll::CollOp::kBcast, "auto");
           },
           true},
          {"HMPI_Coll_get_selection", no_code([] {
             HMPI_Coll_get_selection(hmpi::coll::CollOp::kBcast, 8);
           })},
          {"HMPI_Trace_export_json",
           no_code([os] { HMPI_Trace_export_json(*os); })},
          {"HMPI_Critical_path_json",
           no_code([os] { HMPI_Critical_path_json(*os); })},
          {"HMPI_Blame_top", no_code([] { HMPI_Blame_top(1); })},
          {"HMPI_Sched_submit", no_code([] { HMPI_Sched_submit({}); })},
          {"HMPI_Sched_poll", no_code([] { HMPI_Sched_poll(1); })},
          {"HMPI_Sched_cancel", no_code([] { HMPI_Sched_cancel(1); })},
          {"HMPI_Sched_advance", no_code([] { HMPI_Sched_advance(); })},
          {"HMPI_Sched_stats", no_code([] { HMPI_Sched_stats(); })},
          {"HMPI_Sched_stats_json",
           no_code([os] { HMPI_Sched_stats_json(*os); })},
      });
  return calls;
}

TEST(CApi, EveryEntryPointRejectsMisuse) {
  hmpi::hnoc::Cluster cluster = hmpi::hnoc::testbeds::homogeneous(2, 50.0);
  hmpi::RuntimeConfig config;
  config.adapt.enabled = true;
  World::run_one_per_processor(cluster, [&](Proc& p) {
    HMPI_Group empty;
    std::ostringstream sink;
    expect_rejected(every_entry_point(empty, sink), "before HMPI_Init",
                    "HMPI routine called before HMPI_Init");

    HMPI_Init(p, config);
    HMPI_Recon([](Proc& q) { q.compute(1.0); });
    const Model model = tiny_model();
    const std::vector<ParamValue> params{hmpi::pmdl::scalar(2)};
    HMPI_Group gid;
    HMPI_Group_create(&gid, model, params);
    ASSERT_TRUE(HMPI_Is_member(gid));

    expect_rejected(
        {
            {"HMPI_Group_create(null)",
             no_code([&] { HMPI_Group_create(nullptr, model, params); })},
            {"HMPI_Group_free(null)", no_code([] { HMPI_Group_free(nullptr); })},
            {"HMPI_Group_fail(null)", no_code([] { HMPI_Group_fail(nullptr); })},
            {"HMPI_Group_respawn(null)",
             no_code([&] { HMPI_Group_respawn(nullptr, model, params); })},
            {"HMPI_Group_migrate(null)",
             no_code([&] { HMPI_Group_migrate(nullptr, model, params); })},
            {"HMPI_Adapt_migrate(null)",
             [&] { return HMPI_Adapt_migrate(nullptr, model, params); }},
        },
        "null group");
    expect_rejected(group_routines(empty), "empty group",
                    "not a live group");

    // Out-of-range arguments. Collective routines fail on every process
    // before any communication.
    const auto bench = [](Proc& q) { q.compute(1.0); };
    expect_rejected(
        {
            {"HMPI_Blame_top(0)", no_code([] { HMPI_Blame_top(0); })},
            {"HMPI_Group_coordof(size)",
             no_code([&] { HMPI_Group_coordof(gid, HMPI_Group_size(gid)); })},
            {"HMPI_Group_coordof(-1)",
             no_code([&] { HMPI_Group_coordof(gid, -1); })},
            {"HMPI_Group_observed(runs 0)",
             no_code([&] { HMPI_Group_observed(gid, 1.0, 0); })},
            {"HMPI_Recon_with_timeout(timeout 0)",
             no_code([&] { HMPI_Recon_with_timeout(bench, 0.0); })},
            {"HMPI_Recon_with_timeout(0 attempts)",
             no_code([&] { HMPI_Recon_with_timeout(bench, 1.0, 0); })},
            {"HMPI_Recon_with_timeout(backoff 0.5)",
             no_code([&] { HMPI_Recon_with_timeout(bench, 1.0, 1, 0.5); })},
            {"HMPI_Adapt_migrate(state bytes -1)",
             [&] { return HMPI_Adapt_migrate(&gid, model, params, -1); }},
            {"HMPI_Coll_set_policy(op 99)",
             [] { return HMPI_Coll_set_policy(hmpi::coll::CollOp(99), "auto"); },
             true},
            {"HMPI_Coll_set_policy(unknown algorithm)",
             [] {
               return HMPI_Coll_set_policy(hmpi::coll::CollOp::kBcast,
                                           "fastest");
             },
             true},
        },
        "out of range");
    try {
      HMPI_Coll_get_selection(hmpi::coll::CollOp(99), 8);
      ADD_FAILURE() << "HMPI_Coll_get_selection(op 99) succeeded";
    } catch (const hmpi::InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("99"), std::string::npos) << e.what();
    }
    HMPI_Group_free(&gid);
    HMPI_Finalize(0);

    std::vector<Misuse> after = every_entry_point(empty, sink);
    after.push_back({"HMPI_Init", no_code([&p] { HMPI_Init(p); })});
    expect_rejected(after, "after HMPI_Finalize", "after HMPI_Finalize");
  });
}

}  // namespace
