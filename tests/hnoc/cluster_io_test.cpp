#include "hnoc/cluster_io.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace hmpi::hnoc {
namespace {

TEST(ClusterIo, ParsesTheBasics) {
  Cluster c = parse_cluster(R"(
    # the paper's network, abridged
    network latency 150e-6 bandwidth 12.5e6
    shared_memory latency 5e-6 bandwidth 1e9
    processor ws0 speed 46
    processor ws6 speed 176
    processor ws8 speed 9
  )");
  ASSERT_EQ(c.size(), 3);
  EXPECT_EQ(c.processor(0).name, "ws0");
  EXPECT_DOUBLE_EQ(c.processor(1).speed, 176.0);
  EXPECT_DOUBLE_EQ(c.link(0, 1).latency_s, 150e-6);
  EXPECT_DOUBLE_EQ(c.link(2, 2).bandwidth_bps, 1e9);
}

TEST(ClusterIo, ParsesLoadAttributes) {
  Cluster c = parse_cluster(R"(
    processor busy speed 100 load 0.25
    processor drifts speed 100 load@10 0.5
  )");
  EXPECT_DOUBLE_EQ(c.effective_speed(0, 0.0), 25.0);
  EXPECT_DOUBLE_EQ(c.effective_speed(1, 5.0), 100.0);
  EXPECT_DOUBLE_EQ(c.effective_speed(1, 15.0), 50.0);
}

TEST(ClusterIo, ParsesLinkOverrides) {
  Cluster c = parse_cluster(R"(
    processor a speed 10
    processor b speed 10
    network latency 1e-4 bandwidth 1e7
    link a b latency 1e-5 bandwidth 1e8
    symmetric_link a b latency 2e-5 bandwidth 5e7
  )");
  // The symmetric directive came last and wins in both directions.
  EXPECT_DOUBLE_EQ(c.link(0, 1).latency_s, 2e-5);
  EXPECT_DOUBLE_EQ(c.link(1, 0).latency_s, 2e-5);
}

TEST(ClusterIo, LinksMayReferenceLaterProcessors) {
  Cluster c = parse_cluster(R"(
    link a b latency 1e-5 bandwidth 1e8
    processor a speed 10
    processor b speed 10
  )");
  EXPECT_DOUBLE_EQ(c.link(0, 1).bandwidth_bps, 1e8);
}

TEST(ClusterIo, ErrorsCarryLineNumbers) {
  auto expect_error = [](const char* text, const char* fragment) {
    try {
      parse_cluster(text);
      FAIL() << "expected InvalidArgument for: " << text;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << "actual: " << e.what();
    }
  };
  expect_error("frobnicate x\n", "unknown directive");
  expect_error("processor a speed banana\n", "malformed speed");
  expect_error("processor a speed 1\nprocessor a speed 2\n", "duplicate");
  expect_error("network latency 1\n", "expected 'latency");
  expect_error("processor a speed 1\nlink a nosuch latency 1 bandwidth 1\n",
               "unknown processor");
  expect_error("processor a speed 1 wibble 2\n", "unknown processor attribute");
  expect_error("\n\nfrobnicate\n", "line 3");
  // Values must be finite, and a LAN id must be an int.
  expect_error("processor a speed 1\nprocessor b speed 10 load inf\n",
               "line 2: malformed load multiplier 'inf'");
  expect_error("processor a speed 1\nnetwork latency inf bandwidth 1e6\n",
               "line 2: malformed latency 'inf'");
  expect_error("processor a speed 1\nprocessor b speed 1\n"
               "link a b latency inf bandwidth 1e6\n",
               "line 3: malformed latency 'inf'");
  expect_error("processor a speed 1\nlan a 2147483648\n",
               "line 2: LAN id must be a non-negative int, got '2147483648'");
  expect_error("processor a speed 1\nlan a 1.0\n", "line 2: LAN id");
}

TEST(ClusterIo, RoundTripsThroughDescription) {
  Cluster original = parse_cluster(R"(
    network latency 0.00015 bandwidth 12500000
    shared_memory latency 5e-06 bandwidth 1e9
    processor ws0 speed 46
    processor ws6 speed 176 load 0.25
    link ws0 ws6 latency 1e-05 bandwidth 1e8
  )");
  Cluster reparsed = parse_cluster(to_description(original));
  ASSERT_EQ(reparsed.size(), original.size());
  for (int p = 0; p < original.size(); ++p) {
    EXPECT_EQ(reparsed.processor(p).name, original.processor(p).name);
    EXPECT_DOUBLE_EQ(reparsed.processor(p).speed, original.processor(p).speed);
    EXPECT_DOUBLE_EQ(reparsed.effective_speed(p, 0.0),
                     original.effective_speed(p, 0.0));
  }
  for (int a = 0; a < original.size(); ++a) {
    for (int b = 0; b < original.size(); ++b) {
      EXPECT_DOUBLE_EQ(reparsed.link(a, b).latency_s, original.link(a, b).latency_s);
      EXPECT_DOUBLE_EQ(reparsed.link(a, b).bandwidth_bps,
                       original.link(a, b).bandwidth_bps);
    }
  }
}

TEST(ClusterIo, EmptyDescriptionRejected) {
  // No processors declared -> the builder refuses.
  EXPECT_THROW(parse_cluster("network latency 1 bandwidth 1\n"), InvalidArgument);
}

TEST(ClusterIo, TwoLevelDirectivesParse) {
  Cluster c = parse_cluster(R"(
    processor a speed 50
    processor b speed 50
    processor c speed 50
    intra_lan latency 5e-5 bandwidth 1e8
    inter_lan latency 1e-2 bandwidth 1e6
    lan a 0
    lan b 0
    lan c 1
  )");
  ASSERT_TRUE(c.two_level());
  EXPECT_EQ(c.lan_of(0), 0);
  EXPECT_EQ(c.lan_of(2), 1);
  EXPECT_DOUBLE_EQ(c.link(0, 1).latency_s, 5e-5);
  EXPECT_DOUBLE_EQ(c.link(0, 2).latency_s, 1e-2);
}

TEST(ClusterIo, TwoLevelRoundTrips) {
  Cluster original = testbeds::two_level(2, 3, 45.0);
  Cluster reparsed = parse_cluster(to_description(original));
  ASSERT_TRUE(reparsed.two_level());
  ASSERT_EQ(reparsed.size(), original.size());
  for (int p = 0; p < original.size(); ++p) {
    EXPECT_EQ(reparsed.lan_of(p), original.lan_of(p));
  }
  for (int a = 0; a < original.size(); ++a) {
    for (int b = 0; b < original.size(); ++b) {
      EXPECT_DOUBLE_EQ(reparsed.link(a, b).latency_s,
                       original.link(a, b).latency_s);
      EXPECT_DOUBLE_EQ(reparsed.link(a, b).bandwidth_bps,
                       original.link(a, b).bandwidth_bps);
    }
  }
}

TEST(ClusterIo, TwoLevelRejectsPartialLanAssignment) {
  EXPECT_THROW(parse_cluster(R"(
    processor a speed 50
    processor b speed 50
    lan a 0
  )"),
               InvalidArgument);
  EXPECT_THROW(parse_cluster("processor a speed 50\nlan a -1\n"),
               InvalidArgument);
  EXPECT_THROW(parse_cluster("processor a speed 50\nlan ghost 0\n"),
               InvalidArgument);
}

/// Checks what every accepted description must yield: positive, finite
/// speeds and compute times, finite transfer times, and a description that
/// parses back to itself.
void expect_usable(const Cluster& c, const std::string& text) {
  for (int p = 0; p < c.size(); ++p) {
    for (double t : {0.0, 5.0, 10.0, 1e9}) {
      const double speed = c.effective_speed(p, t);
      EXPECT_TRUE(speed > 0.0 && std::isfinite(speed)) << speed << "\n" << text;
    }
    EXPECT_TRUE(std::isfinite(c.compute_finish(p, 0.0, 1e6))) << text;
    for (int q = 0; q < c.size(); ++q) {
      const double t = c.link(p, q).transfer_time(1 << 20);
      EXPECT_TRUE(t >= 0.0 && std::isfinite(t)) << t << "\n" << text;
    }
  }
  const std::string description = to_description(c);
  EXPECT_EQ(to_description(parse_cluster(description)), description) << text;
}

TEST(ClusterIo, TokenMutationsThrowOrYieldAUsableCluster) {
  // Seeded mutations of a valid description, one or two per trial, token
  // by token: replace a token with an adversarial one, delete it, or
  // duplicate it. Each mutant must either throw hmpi::Error or be usable.
  const std::string valid = R"(network latency 150e-6 bandwidth 12.5e6
shared_memory latency 5e-6 bandwidth 1e9
processor ws0 speed 46
processor ws6 speed 176 load 0.25
processor ws7 speed 106 load@10 0.5
link ws0 ws6 latency 1e-5 bandwidth 1e8
symmetric_link ws0 ws7 latency 1e-5 bandwidth 1e8
intra_lan latency 50e-6 bandwidth 125e6
inter_lan latency 5e-3 bandwidth 1.25e6
lan ws0 0
lan ws6 1
lan ws7 1
)";
  const std::vector<std::string> adversarial = {
      "inf",        "-inf",       "nan",         "0",      "-0",
      "-1",         "1e-300",     "1e300",       "1e999",  "2147483647",
      "2147483648", "-2147483649", "1.5",        "+1",     "0x10",
      "abc",        "load",       "load@1",      "load@inf", "latency",
      "bandwidth",  "speed",      "lan",         "processor", "ws0",
      "#"};
  std::vector<std::vector<std::string>> lines;
  std::istringstream in(valid);
  for (std::string line; std::getline(in, line);) {
    std::istringstream words(line);
    lines.emplace_back();
    for (std::string word; words >> word;) lines.back().push_back(word);
  }
  ASSERT_EQ(to_description(parse_cluster(valid)),
            to_description(parse_cluster(to_description(parse_cluster(valid)))));

  support::Rng rng(2003);
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<std::vector<std::string>> mutant = lines;
    const int mutations = 1 + static_cast<int>(rng.next_below(2));
    for (int m = 0; m < mutations; ++m) {
      auto& tokens = mutant[rng.next_below(mutant.size())];
      if (tokens.empty()) continue;
      const auto at = static_cast<std::ptrdiff_t>(rng.next_below(tokens.size()));
      switch (rng.next_below(4)) {
        case 0:
          tokens.erase(tokens.begin() + at);
          break;
        case 1:
          tokens.insert(tokens.begin() + at, tokens[static_cast<std::size_t>(at)]);
          break;
        default:
          tokens[static_cast<std::size_t>(at)] =
              adversarial[rng.next_below(adversarial.size())];
      }
    }
    std::string text;
    for (const auto& tokens : mutant) {
      for (const std::string& token : tokens) text += token + " ";
      text += "\n";
    }
    try {
      const Cluster c = parse_cluster(text);
      ++accepted;
      expect_usable(c, text);
    } catch (const Error&) {
      ++rejected;
    }
  }
  // Both outcomes occur, so the corpus exercises the parser's checks and
  // its accepted paths.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace hmpi::hnoc
