// Tests of the extended operations: sendrecv, gatherv/scatterv, scan, and
// the event tracer.
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>
#include <vector>

#include "hnoc/cluster.hpp"
#include "mpsim/comm.hpp"
#include "mpsim/trace.hpp"

namespace hmpi::mp {
namespace {

hnoc::Cluster uniform(int n) { return hnoc::testbeds::homogeneous(n, 100.0); }

TEST(ExtendedOps, SendrecvRing) {
  World::run_one_per_processor(uniform(4), [](Proc& p) {
    Comm comm = p.world_comm();
    const int right = (p.rank() + 1) % 4;
    const int left = (p.rank() + 3) % 4;
    int outgoing = p.rank() * 10;
    int incoming = -1;
    Status s = comm.sendrecv(std::span<const int>(&outgoing, 1), right, 5,
                             std::span<int>(&incoming, 1), left, 5);
    EXPECT_EQ(incoming, left * 10);
    EXPECT_EQ(s.source, left);
  });
}

class VariableOpsP : public ::testing::TestWithParam<int> {};

TEST_P(VariableOpsP, GathervCollectsRaggedContributions) {
  const int n = GetParam();
  World::run_one_per_processor(uniform(n), [n](Proc& p) {
    Comm comm = p.world_comm();
    // Rank r contributes r+1 elements of value r.
    std::vector<int> mine(static_cast<std::size_t>(p.rank() + 1), p.rank());
    std::vector<int> counts, displs;
    int total = 0;
    for (int r = 0; r < n; ++r) {
      counts.push_back(r + 1);
      displs.push_back(total);
      total += r + 1;
    }
    std::vector<int> all(static_cast<std::size_t>(total), -1);
    comm.gatherv(std::span<const int>(mine), std::span<int>(all),
                 std::span<const int>(counts), std::span<const int>(displs), 0);
    if (p.rank() == 0) {
      int idx = 0;
      for (int r = 0; r < n; ++r) {
        for (int i = 0; i <= r; ++i) {
          EXPECT_EQ(all[static_cast<std::size_t>(idx++)], r);
        }
      }
    }
  });
}

TEST_P(VariableOpsP, ScattervDistributesRaggedPieces) {
  const int n = GetParam();
  World::run_one_per_processor(uniform(n), [n](Proc& p) {
    Comm comm = p.world_comm();
    std::vector<int> counts, displs;
    int total = 0;
    for (int r = 0; r < n; ++r) {
      counts.push_back(r + 1);
      displs.push_back(total);
      total += r + 1;
    }
    std::vector<int> source;
    if (p.rank() == 0) {
      source.resize(static_cast<std::size_t>(total));
      std::iota(source.begin(), source.end(), 0);
    }
    std::vector<int> mine(static_cast<std::size_t>(p.rank() + 1), -1);
    comm.scatterv(std::span<const int>(source), std::span<const int>(counts),
                  std::span<const int>(displs), std::span<int>(mine), 0);
    for (int i = 0; i <= p.rank(); ++i) {
      EXPECT_EQ(mine[static_cast<std::size_t>(i)],
                displs[static_cast<std::size_t>(p.rank())] + i);
    }
  });
}

TEST_P(VariableOpsP, ScanComputesPrefixSums) {
  const int n = GetParam();
  World::run_one_per_processor(uniform(n), [](Proc& p) {
    Comm comm = p.world_comm();
    std::vector<long> in{static_cast<long>(p.rank() + 1), 1};
    std::vector<long> out(2, -1);
    comm.scan(std::span<const long>(in), std::span<long>(out),
              [](long a, long b) { return a + b; });
    // out[0] = 1 + 2 + ... + (rank+1); out[1] = rank+1.
    const long r = p.rank() + 1;
    EXPECT_EQ(out[0], r * (r + 1) / 2);
    EXPECT_EQ(out[1], static_cast<long>(p.rank() + 1));
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, VariableOpsP, ::testing::Values(1, 2, 3, 5, 9));

TEST(ExtendedOps, GathervValidation) {
  EXPECT_THROW(World::run_one_per_processor(
                   uniform(2),
                   [](Proc& p) {
                     Comm comm = p.world_comm();
                     int mine = 0;
                     std::vector<int> all(1);   // too small for 2 ranks
                     std::vector<int> counts{1, 1}, displs{0, 1};
                     comm.gatherv(std::span<const int>(&mine, 1),
                                  std::span<int>(all),
                                  std::span<const int>(counts),
                                  std::span<const int>(displs), 0);
                   }),
               hmpi::InvalidArgument);
}

// --- tracer -------------------------------------------------------------------

TEST(Tracer, RecordsSendsRecvsAndComputes) {
  Tracer tracer;
  World::Options o;
  o.tracer = &tracer;
  World::run_one_per_processor(
      uniform(2),
      [](Proc& p) {
        Comm comm = p.world_comm();
        if (p.rank() == 0) {
          p.compute(10.0);
          comm.send_value(1, 1, 3);
        } else {
          comm.recv_value<int>(0, 3);
        }
      },
      o);
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 3u);
  using Kind = telemetry::CausalEvent::Kind;
  const telemetry::CausalEvent* compute = nullptr;
  const telemetry::CausalEvent* send = nullptr;
  const telemetry::CausalEvent* recv = nullptr;
  for (const telemetry::CausalEvent& e : events) {
    if (e.kind == Kind::kCompute) compute = &e;
    if (e.kind == Kind::kSend) send = &e;
    if (e.kind == Kind::kRecv) recv = &e;
  }
  ASSERT_TRUE(compute && send && recv);
  EXPECT_DOUBLE_EQ(compute->value, 10.0);  // units
  EXPECT_DOUBLE_EQ(compute->t1 - compute->t0, 0.1);
  EXPECT_EQ(send->rank, 0);
  EXPECT_EQ(send->peer, 1);
  EXPECT_EQ(send->bytes, sizeof(int));
  EXPECT_GE(send->t0, compute->t1);  // sent after computing
  EXPECT_EQ(recv->rank, 1);
  EXPECT_EQ(recv->peer, 0);
  // Recv completes no earlier than the send's arrival.
  EXPECT_GE(recv->t1, send->value);
}

TEST(Tracer, CountsMatchStats) {
  Tracer tracer;
  World::Options o;
  o.tracer = &tracer;
  auto result = World::run_one_per_processor(
      uniform(3),
      [](Proc& p) {
        int v = p.rank();
        p.world_comm().bcast_value(v, 0);
        p.world_comm().barrier();
      },
      o);
  std::uint64_t sends = 0, recvs = 0;
  for (const auto& e : tracer.events()) {
    if (e.kind == telemetry::CausalEvent::Kind::kSend) ++sends;
    if (e.kind == telemetry::CausalEvent::Kind::kRecv) ++recvs;
  }
  std::uint64_t stat_sends = 0, stat_recvs = 0;
  for (const auto& s : result.stats) {
    stat_sends += s.msgs_sent;
    stat_recvs += s.msgs_received;
  }
  EXPECT_EQ(sends, stat_sends);
  EXPECT_EQ(recvs, stat_recvs);
  EXPECT_EQ(sends, recvs);  // everything sent was received
}

TEST(Tracer, CsvOutput) {
  Tracer tracer;
  World::Options o;
  o.tracer = &tracer;
  World::run_one_per_processor(
      uniform(1), [](Proc& p) { p.compute(1.0); }, o);
  std::ostringstream os;
  tracer.write_csv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("kind,world_rank,processor"), std::string::npos);
  EXPECT_NE(out.find("compute,0,0"), std::string::npos);
}

TEST(Tracer, ViewsWorldsInRunOrder) {
  // Two worlds on one tracer tie on (t0, rank), so the view keeps their
  // events in attach (run) order; a scheduler instant at the same time sits
  // on rank -1 and sorts first.
  Tracer tracer;
  World::Options o;
  o.tracer = &tracer;
  World::run_one_per_processor(
      uniform(1), [](Proc& p) { p.compute(1.0); }, o);
  World::run_one_per_processor(
      uniform(1), [](Proc& p) { p.compute(2.0); }, o);
  telemetry::CausalEvent dispatch;
  dispatch.kind = telemetry::CausalEvent::Kind::kSchedDispatch;
  tracer.host_log()->record(0, dispatch);
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, telemetry::CausalEvent::Kind::kSchedDispatch);
  EXPECT_EQ(events[1].value, 1.0);  // the first world's units
  EXPECT_EQ(events[2].value, 2.0);
}

TEST(Tracer, ClearResets) {
  Tracer tracer;
  World::Options o;
  o.tracer = &tracer;
  World::run_one_per_processor(
      uniform(1), [](Proc& p) { p.compute(1.0); }, o);
  EXPECT_EQ(tracer.size(), 1u);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
}

}  // namespace
}  // namespace hmpi::mp
