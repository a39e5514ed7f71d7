// Tests of the virtual-time accounting model: computation speed scaling,
// transfer costs, link serialisation, determinism, heterogeneity effects.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "hnoc/cluster.hpp"
#include "mpsim/comm.hpp"

namespace hmpi::mp {
namespace {

World::Options zero_overhead() {
  World::Options o;
  o.send_overhead_s = 0.0;
  o.recv_overhead_s = 0.0;
  return o;
}

TEST(VirtualTime, ComputeScalesWithSpeed) {
  hnoc::Cluster c = hnoc::ClusterBuilder().add("fast", 100.0).add("slow", 10.0).build();
  auto result = World::run_one_per_processor(c, [](Proc& p) { p.compute(100.0); });
  EXPECT_DOUBLE_EQ(result.clocks[0], 1.0);
  EXPECT_DOUBLE_EQ(result.clocks[1], 10.0);
  EXPECT_DOUBLE_EQ(result.makespan, 10.0);
}

TEST(VirtualTime, ComputeAccumulates) {
  hnoc::Cluster c = hnoc::testbeds::homogeneous(1, 10.0);
  auto result = World::run_one_per_processor(c, [](Proc& p) {
    p.compute(5.0);
    p.compute(5.0);
    EXPECT_DOUBLE_EQ(p.clock(), 1.0);
    EXPECT_DOUBLE_EQ(p.stats().compute_units, 10.0);
    EXPECT_DOUBLE_EQ(p.stats().compute_time, 1.0);
  });
  EXPECT_DOUBLE_EQ(result.clocks[0], 1.0);
}

TEST(VirtualTime, LoadProfileSlowsComputation) {
  hnoc::Cluster c = hnoc::ClusterBuilder()
                        .add("m", 10.0, hnoc::LoadProfile({{0.5, 0.5}}))
                        .build();
  // 10 units: 0.5 s at 10 u/s (5 units), then 5 units at 5 u/s (1 s) -> 1.5 s.
  auto result = World::run_one_per_processor(c, [](Proc& p) { p.compute(10.0); });
  EXPECT_DOUBLE_EQ(result.clocks[0], 1.5);
}

TEST(VirtualTime, TransferCostLatencyPlusBandwidth) {
  hnoc::Cluster c = hnoc::ClusterBuilder()
                        .add("a", 100.0)
                        .add("b", 100.0)
                        .network(0.001, 1e6)  // 1 ms + bytes/1MBps
                        .build();
  auto result = World::run_one_per_processor(
      c,
      [](Proc& p) {
        Comm comm = p.world_comm();
        std::vector<std::byte> buf(1000000);
        if (p.rank() == 0) {
          comm.send_bytes(buf, 1, 0);
        } else {
          comm.recv_bytes(buf, 0, 0);
        }
      },
      zero_overhead());
  // Receiver: 0.001 + 1e6/1e6 = 1.001 s; sender pays nothing (buffered).
  EXPECT_DOUBLE_EQ(result.clocks[1], 1.001);
  EXPECT_DOUBLE_EQ(result.clocks[0], 0.0);
}

TEST(VirtualTime, IntraMachineUsesSharedMemoryLink) {
  hnoc::Cluster c = hnoc::ClusterBuilder()
                        .add("a", 100.0)
                        .network(0.001, 1e6)
                        .shared_memory(1e-6, 1e9)
                        .build();
  auto result = World::run(
      c, {0, 0},
      [](Proc& p) {
        Comm comm = p.world_comm();
        std::vector<std::byte> buf(1000000);
        if (p.rank() == 0) {
          comm.send_bytes(buf, 1, 0);
        } else {
          comm.recv_bytes(buf, 0, 0);
        }
      },
      zero_overhead());
  // 1 us + 1e6/1e9 = 1.001 ms, far below the 1.001 s Ethernet figure.
  EXPECT_NEAR(result.clocks[1], 0.001001, 1e-9);
}

TEST(VirtualTime, LinkSerialisesSuccessiveTransfers) {
  hnoc::Cluster c = hnoc::ClusterBuilder()
                        .add("a", 100.0)
                        .add("b", 100.0)
                        .network(0.0, 1e6)
                        .build();
  auto result = World::run_one_per_processor(
      c,
      [](Proc& p) {
        Comm comm = p.world_comm();
        std::vector<std::byte> buf(500000);  // 0.5 s each on the wire
        if (p.rank() == 0) {
          comm.send_bytes(buf, 1, 0);
          comm.send_bytes(buf, 1, 0);  // sender is free immediately, but the
                                       // link carries them back-to-back
        } else {
          comm.recv_bytes(buf, 0, 0);
          EXPECT_DOUBLE_EQ(p.clock(), 0.5);
          comm.recv_bytes(buf, 0, 0);
          EXPECT_DOUBLE_EQ(p.clock(), 1.0);
        }
      },
      zero_overhead());
  EXPECT_DOUBLE_EQ(result.clocks[1], 1.0);
}

TEST(VirtualTime, DistinctLinksRunInParallel) {
  // A switched network: transfers 0->2 and 1->2 share only the destination;
  // our model serialises per directed (src,dst) pair, so they overlap.
  hnoc::Cluster c = hnoc::ClusterBuilder()
                        .add("a", 100.0)
                        .add("b", 100.0)
                        .add("dst", 100.0)
                        .network(0.0, 1e6)
                        .build();
  auto result = World::run_one_per_processor(
      c,
      [](Proc& p) {
        Comm comm = p.world_comm();
        std::vector<std::byte> buf(1000000);  // 1 s on the wire
        if (p.rank() < 2) {
          comm.send_bytes(buf, 2, 0);
        } else {
          comm.recv_bytes(buf, 0, 0);
          comm.recv_bytes(buf, 1, 0);
        }
      },
      zero_overhead());
  // Both arrive at t=1; the receiver finishes at 1, not 2.
  EXPECT_DOUBLE_EQ(result.clocks[2], 1.0);
}

TEST(VirtualTime, ReceiverWaitsForArrival) {
  hnoc::Cluster c = hnoc::ClusterBuilder()
                        .add("slow", 1.0)
                        .add("fast", 1000.0)
                        .network(0.0, 1e9)
                        .build();
  auto result = World::run_one_per_processor(
      c,
      [](Proc& p) {
        Comm comm = p.world_comm();
        if (p.rank() == 0) {
          p.compute(10.0);  // 10 s
          comm.send_value(1, 1, 0);
        } else {
          comm.recv_value<int>(0, 0);
          EXPECT_GE(p.clock(), 10.0);
          EXPECT_GE(p.stats().wait_time, 10.0 - 1e-9);
        }
      },
      zero_overhead());
  EXPECT_GE(result.clocks[1], 10.0);
}

TEST(VirtualTime, LateReceiverDoesNotWait) {
  hnoc::Cluster c = hnoc::testbeds::homogeneous(2, 1.0);
  World::run_one_per_processor(
      c,
      [](Proc& p) {
        Comm comm = p.world_comm();
        if (p.rank() == 0) {
          comm.send_value(1, 1, 0);
        } else {
          p.compute(100.0);  // 100 s; message arrived long ago
          const double before = p.clock();
          comm.recv_value<int>(0, 0);
          EXPECT_DOUBLE_EQ(p.clock(), before);
          EXPECT_DOUBLE_EQ(p.stats().wait_time, 0.0);
        }
      },
      zero_overhead());
}

TEST(VirtualTime, DeterministicAcrossRuns) {
  // Virtual results must be identical run to run despite real threading.
  auto run_once = [] {
    hnoc::Cluster c = hnoc::testbeds::paper_em3d_network();
    auto result = World::run_one_per_processor(c, [](Proc& p) {
      Comm comm = p.world_comm();
      p.compute(10.0 * (p.rank() + 1));
      comm.barrier();
      std::vector<double> all(static_cast<std::size_t>(p.nprocs()));
      double mine = p.clock();
      comm.allgather(std::span<const double>(&mine, 1), std::span<double>(all));
      p.compute(5.0);
    });
    return result.clocks;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(VirtualTime, SendOverheadCharged) {
  hnoc::Cluster c = hnoc::testbeds::homogeneous(2, 1.0);
  World::Options o;
  o.send_overhead_s = 0.25;
  o.recv_overhead_s = 0.0;
  auto result = World::run_one_per_processor(
      c,
      [](Proc& p) {
        Comm comm = p.world_comm();
        if (p.rank() == 0) {
          comm.send_value(1, 1, 0);
          comm.send_value(1, 1, 0);
        } else {
          comm.recv_value<int>(0, 0);
          comm.recv_value<int>(0, 0);
        }
      },
      o);
  EXPECT_DOUBLE_EQ(result.clocks[0], 0.5);
}

TEST(VirtualTime, ElapseAdvancesClock) {
  hnoc::Cluster c = hnoc::testbeds::homogeneous(1);
  auto result = World::run_one_per_processor(c, [](Proc& p) {
    p.elapse(2.5);
    EXPECT_THROW(p.elapse(-1.0), hmpi::InvalidArgument);
  });
  EXPECT_DOUBLE_EQ(result.clocks[0], 2.5);
}

TEST(VirtualTime, HeterogeneousBarrierBoundByslowest) {
  hnoc::Cluster c = hnoc::testbeds::paper_em3d_network();
  auto result = World::run_one_per_processor(c, [](Proc& p) {
    p.compute(90.0);  // 90/9 = 10 s on the slowest machine
    p.world_comm().barrier();
  });
  for (double clock : result.clocks) EXPECT_GE(clock, 10.0);
}

TEST(VirtualTime, PlacementControlsSpeed) {
  hnoc::Cluster c = hnoc::ClusterBuilder().add("fast", 100.0).add("slow", 10.0).build();
  // Both processes on the fast machine.
  auto result = World::run(c, {0, 0}, [](Proc& p) { p.compute(100.0); });
  EXPECT_DOUBLE_EQ(result.clocks[0], 1.0);
  EXPECT_DOUBLE_EQ(result.clocks[1], 1.0);
}

TEST(VirtualTime, OverheadsValidated) {
  // A NaN send overhead made the makespan NaN while the receiver's clock
  // read as if the message arrived at time 0.
  hnoc::Cluster c = hnoc::testbeds::homogeneous(2);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0,
                           std::numeric_limits<double>::infinity()}) {
    World::Options send;
    send.send_overhead_s = bad;
    EXPECT_THROW(World::run(c, {0, 1}, [](Proc&) {}, send),
                 hmpi::InvalidArgument)
        << bad;
    World::Options recv;
    recv.recv_overhead_s = bad;
    EXPECT_THROW(World::run(c, {0, 1}, [](Proc&) {}, recv),
                 hmpi::InvalidArgument)
        << bad;
  }
  EXPECT_NO_THROW(World::run(c, {0, 1}, [](Proc&) {}, zero_overhead()));
}

TEST(VirtualTime, PlacementValidated) {
  hnoc::Cluster c = hnoc::testbeds::homogeneous(2);
  EXPECT_THROW(World::run(c, {0, 5}, [](Proc&) {}), hmpi::InvalidArgument);
  EXPECT_THROW(World::run(c, {}, [](Proc&) {}), hmpi::InvalidArgument);
}

}  // namespace
}  // namespace hmpi::mp
