#include "hnoc/cluster.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "support/error.hpp"

namespace hmpi::hnoc {
namespace {

Cluster two_machines() {
  return ClusterBuilder()
      .add("fast", 100.0)
      .add("slow", 10.0)
      .network(1e-4, 1e7)
      .shared_memory(1e-6, 1e9)
      .build();
}

TEST(Cluster, SizeAndProcessorAccess) {
  Cluster c = two_machines();
  ASSERT_EQ(c.size(), 2);
  EXPECT_EQ(c.processor(0).name, "fast");
  EXPECT_DOUBLE_EQ(c.processor(1).speed, 10.0);
  EXPECT_THROW(c.processor(2), hmpi::InvalidArgument);
  EXPECT_THROW(c.processor(-1), hmpi::InvalidArgument);
}

TEST(Cluster, RejectsEmptyOrBadSpeeds) {
  EXPECT_THROW(ClusterBuilder().build(), hmpi::InvalidArgument);
  EXPECT_THROW(ClusterBuilder().add("x", 0.0).build(), hmpi::InvalidArgument);
  EXPECT_THROW(ClusterBuilder().add("x", -5.0).build(), hmpi::InvalidArgument);
}

TEST(Cluster, RejectsNonFiniteLatencies) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(ClusterBuilder().add("x", 1.0).network(inf, 1e6).build(),
               hmpi::InvalidArgument);
  EXPECT_THROW(ClusterBuilder().add("x", 1.0).shared_memory(inf, 1e6).build(),
               hmpi::InvalidArgument);
  EXPECT_THROW(ClusterBuilder()
                   .add("x", 1.0)
                   .add("y", 1.0)
                   .link_override(0, 1, inf, 1e6)
                   .build(),
               hmpi::InvalidArgument);
  EXPECT_THROW(ClusterBuilder()
                   .add("x", 1.0)
                   .two_level({0}, 1e-6, 1e9, std::nan(""), 1e6)
                   .build(),
               hmpi::InvalidArgument);
}

// An infinite bandwidth would price any byte count at the latency alone
// (and an infinite byte count at NaN), so every kind of link rejects it and
// the error names the link.
TEST(Cluster, RejectsInfiniteBandwidthsNamingTheLink) {
  const double inf = std::numeric_limits<double>::infinity();
  const auto rejects = [](const ClusterBuilder& builder, const char* link) {
    try {
      builder.build();
      ADD_FAILURE() << link << " accepted an infinite bandwidth";
    } catch (const hmpi::InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string(link) + ": bandwidth"), std::string::npos)
          << what;
    }
  };
  rejects(ClusterBuilder().add("x", 1.0).network(1e-4, inf), "default link");
  rejects(ClusterBuilder().add("x", 1.0).shared_memory(1e-6, inf), "self link");
  rejects(ClusterBuilder().add("x", 1.0).add("y", 1.0).link_override(0, 1, 1e-4,
                                                                    inf),
          "link override");
  rejects(ClusterBuilder().add("x", 1.0).two_level({0}, 1e-6, inf, 1e-2, 1e6),
          "intra-LAN link");
  rejects(ClusterBuilder().add("x", 1.0).two_level({0}, 1e-6, 1e9, 1e-2, inf),
          "inter-LAN link");
}

TEST(Cluster, RejectsASpeedTimesLoadThatOverflowsOrUnderflows) {
  EXPECT_THROW(
      ClusterBuilder().add("x", 1e300, LoadProfile::constant(1e300)).build(),
      hmpi::InvalidArgument);
  EXPECT_THROW(
      ClusterBuilder().add("x", 1e-300, LoadProfile::constant(1e-300)).build(),
      hmpi::InvalidArgument);
  EXPECT_NO_THROW(
      ClusterBuilder().add("x", 1e150, LoadProfile::constant(1e150)).build());
}

TEST(Cluster, InterMachineLinkUsesNetworkParams) {
  Cluster c = two_machines();
  const LinkParams& l = c.link(0, 1);
  EXPECT_DOUBLE_EQ(l.latency_s, 1e-4);
  EXPECT_DOUBLE_EQ(l.bandwidth_bps, 1e7);
}

TEST(Cluster, IntraMachineLinkUsesSharedMemoryParams) {
  Cluster c = two_machines();
  const LinkParams& l = c.link(1, 1);
  EXPECT_DOUBLE_EQ(l.latency_s, 1e-6);
  EXPECT_DOUBLE_EQ(l.bandwidth_bps, 1e9);
}

TEST(Cluster, LinkOverrideWinsOverDefaults) {
  Cluster c = ClusterBuilder()
                  .add("a", 1.0)
                  .add("b", 1.0)
                  .network(1e-4, 1e7)
                  .link_override(0, 1, 1e-5, 1e8)
                  .build();
  EXPECT_DOUBLE_EQ(c.link(0, 1).latency_s, 1e-5);
  // Reverse direction still uses the default.
  EXPECT_DOUBLE_EQ(c.link(1, 0).latency_s, 1e-4);
}

TEST(Cluster, SymmetricOverrideAppliesBothWays) {
  Cluster c = ClusterBuilder()
                  .add("a", 1.0)
                  .add("b", 1.0)
                  .symmetric_link_override(0, 1, 2e-5, 5e7)
                  .build();
  EXPECT_DOUBLE_EQ(c.link(0, 1).bandwidth_bps, 5e7);
  EXPECT_DOUBLE_EQ(c.link(1, 0).bandwidth_bps, 5e7);
}

TEST(Cluster, TransferTimeFormula) {
  LinkParams l{1e-3, 1e6};
  // 1 ms latency + 500000 bytes at 1 MB/s = 0.501 s
  EXPECT_DOUBLE_EQ(l.transfer_time(500000.0), 0.501);
}

TEST(Cluster, ComputeFinishUsesSpeed) {
  Cluster c = two_machines();
  // 50 units at 100 u/s from t=1 -> 1.5; at 10 u/s -> 6.
  EXPECT_DOUBLE_EQ(c.compute_finish(0, 1.0, 50.0), 1.5);
  EXPECT_DOUBLE_EQ(c.compute_finish(1, 1.0, 50.0), 6.0);
}

TEST(Cluster, ComputeFinishHonoursLoadProfile) {
  Cluster c = ClusterBuilder()
                  .add("loaded", 10.0, LoadProfile::constant(0.5))
                  .build();
  EXPECT_DOUBLE_EQ(c.compute_finish(0, 0.0, 10.0), 2.0);
  EXPECT_DOUBLE_EQ(c.effective_speed(0, 0.0), 5.0);
}

TEST(Cluster, TotalBaseSpeed) {
  EXPECT_DOUBLE_EQ(two_machines().total_base_speed(), 110.0);
}

TEST(ClusterTestbeds, PaperEm3dNetworkMatchesPaper) {
  Cluster c = testbeds::paper_em3d_network();
  ASSERT_EQ(c.size(), 9);
  EXPECT_DOUBLE_EQ(c.processor(6).speed, 176.0);
  EXPECT_DOUBLE_EQ(c.processor(7).speed, 106.0);
  EXPECT_DOUBLE_EQ(c.processor(8).speed, 9.0);
  for (int i = 0; i < 6; ++i) EXPECT_DOUBLE_EQ(c.processor(i).speed, 46.0);
  // 100 Mbit Ethernet: 12.5 MB/s.
  EXPECT_DOUBLE_EQ(c.link(0, 1).bandwidth_bps, 12.5e6);
}

TEST(ClusterTestbeds, PaperMmNetworkMatchesPaper) {
  Cluster c = testbeds::paper_mm_network();
  ASSERT_EQ(c.size(), 9);
  EXPECT_DOUBLE_EQ(c.processor(7).speed, 106.0);
  EXPECT_DOUBLE_EQ(c.processor(8).speed, 9.0);
  for (int i = 0; i < 7; ++i) EXPECT_DOUBLE_EQ(c.processor(i).speed, 46.0);
}

TEST(ClusterTestbeds, HomogeneousHasUniformSpeeds) {
  Cluster c = testbeds::homogeneous(4, 77.0);
  ASSERT_EQ(c.size(), 4);
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(c.processor(i).speed, 77.0);
  EXPECT_THROW(testbeds::homogeneous(0), hmpi::InvalidArgument);
}

TEST(Cluster, LinkEndpointValidation) {
  Cluster c = two_machines();
  EXPECT_THROW(c.link(0, 2), hmpi::InvalidArgument);
  EXPECT_THROW(c.link(-1, 0), hmpi::InvalidArgument);
}

TEST(ClusterTwoLevel, LinkResolutionByLan) {
  // 2 LANs of 2 machines: {0,1} and {2,3}.
  Cluster c = ClusterBuilder()
                  .add("a", 50)
                  .add("b", 50)
                  .add("c", 50)
                  .add("d", 50)
                  .shared_memory(1e-6, 1e9)
                  .two_level({0, 0, 1, 1}, 5e-5, 1e8, 1e-2, 1e6)
                  .build();
  ASSERT_TRUE(c.two_level());
  EXPECT_EQ(c.lan_of(0), 0);
  EXPECT_EQ(c.lan_of(3), 1);
  // Same LAN -> intra link.
  EXPECT_DOUBLE_EQ(c.link(0, 1).latency_s, 5e-5);
  EXPECT_DOUBLE_EQ(c.link(0, 1).bandwidth_bps, 1e8);
  // Cross LAN -> inter link.
  EXPECT_DOUBLE_EQ(c.link(1, 2).latency_s, 1e-2);
  EXPECT_DOUBLE_EQ(c.link(1, 2).bandwidth_bps, 1e6);
  // Self link still wins over the topology.
  EXPECT_DOUBLE_EQ(c.link(2, 2).latency_s, 1e-6);
}

TEST(ClusterTwoLevel, OverrideBeatsTopology) {
  Cluster c = ClusterBuilder()
                  .add("a", 50)
                  .add("b", 50)
                  .two_level({0, 1}, 5e-5, 1e8, 1e-2, 1e6)
                  .symmetric_link_override(0, 1, 7e-4, 7e7)
                  .build();
  EXPECT_DOUBLE_EQ(c.link(0, 1).latency_s, 7e-4);
  EXPECT_DOUBLE_EQ(c.link(1, 0).bandwidth_bps, 7e7);
}

TEST(ClusterTwoLevel, ValidatesLanVector) {
  // Wrong arity: one id for two processors.
  EXPECT_THROW(ClusterBuilder()
                   .add("a", 50)
                   .add("b", 50)
                   .two_level({0}, 5e-5, 1e8, 1e-2, 1e6)
                   .build(),
               hmpi::InvalidArgument);
  // Negative LAN id.
  EXPECT_THROW(ClusterBuilder()
                   .add("a", 50)
                   .add("b", 50)
                   .two_level({0, -1}, 5e-5, 1e8, 1e-2, 1e6)
                   .build(),
               hmpi::InvalidArgument);
  // Flat cluster: LAN accessors refuse.
  Cluster flat = two_machines();
  EXPECT_FALSE(flat.two_level());
  EXPECT_THROW(flat.lan_of(0), hmpi::InvalidArgument);
  EXPECT_THROW(flat.intra_link(), hmpi::InvalidArgument);
  EXPECT_THROW(flat.inter_link(), hmpi::InvalidArgument);
}

TEST(ClusterTestbeds, TwoLevelShape) {
  Cluster c = testbeds::two_level(3, 4, 60.0);
  ASSERT_EQ(c.size(), 12);
  ASSERT_TRUE(c.two_level());
  for (int p = 0; p < 12; ++p) {
    EXPECT_EQ(c.lan_of(p), p / 4);
    EXPECT_DOUBLE_EQ(c.processor(p).speed, 60.0);
  }
  // Intra is strictly faster than inter.
  EXPECT_LT(c.intra_link().latency_s, c.inter_link().latency_s);
  EXPECT_GT(c.intra_link().bandwidth_bps, c.inter_link().bandwidth_bps);
  EXPECT_THROW(testbeds::two_level(0, 4), hmpi::InvalidArgument);
}

}  // namespace
}  // namespace hmpi::hnoc
