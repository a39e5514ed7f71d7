#include "hnoc/cluster_io.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
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

/// Expects `reparsed` to hold `original`'s names and numbers bit for bit:
/// speeds, load steps, LANs and every link.
void expect_same_cluster(const Cluster& original, const Cluster& reparsed,
                         const std::string& context) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  ASSERT_EQ(reparsed.size(), original.size()) << context;
  ASSERT_EQ(reparsed.two_level(), original.two_level()) << context;
  for (int p = 0; p < original.size(); ++p) {
    const Processor& a = original.processor(p);
    const Processor& b = reparsed.processor(p);
    EXPECT_EQ(b.name, a.name) << context;
    EXPECT_EQ(bits(b.speed), bits(a.speed)) << b.speed << "\n" << context;
    const auto& a_steps = a.load.steps();
    const auto& b_steps = b.load.steps();
    ASSERT_EQ(b_steps.size(), a_steps.size()) << context;
    for (std::size_t i = 0; i < a_steps.size(); ++i) {
      EXPECT_EQ(bits(b_steps[i].time), bits(a_steps[i].time)) << context;
      EXPECT_EQ(bits(b_steps[i].multiplier), bits(a_steps[i].multiplier))
          << context;
    }
    if (original.two_level()) {
      EXPECT_EQ(reparsed.lan_of(p), original.lan_of(p)) << context;
    }
    for (int q = 0; q < original.size(); ++q) {
      EXPECT_EQ(bits(reparsed.link(p, q).latency_s),
                bits(original.link(p, q).latency_s))
          << context;
      EXPECT_EQ(bits(reparsed.link(p, q).bandwidth_bps),
                bits(original.link(p, q).bandwidth_bps))
          << context;
    }
  }
}

TEST(ClusterIo, RoundTripsThroughDescription) {
  const char* const texts[] = {
      R"(
    network latency 0.00015 bandwidth 12500000
    shared_memory latency 5e-06 bandwidth 1e9
    processor ws0 speed 46
    processor ws6 speed 176 load 0.25
    link ws0 ws6 latency 1e-05 bandwidth 1e8
  )",
      // A breakpoint and a speed that need more than six significant digits.
      "processor b speed 1 load@10.0000001 0.5 load@10 0.25",
      "processor a speed 46.1234567"};
  for (const char* text : texts) {
    const Cluster original = parse_cluster(text);
    expect_same_cluster(original, parse_cluster(to_description(original)),
                        text);
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
  const Cluster original = testbeds::two_level(2, 3, 45.0);
  const std::string description = to_description(original);
  expect_same_cluster(original, parse_cluster(description), description);
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
/// parses back to itself and to the same numbers.
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
  const Cluster reparsed = parse_cluster(description);
  EXPECT_EQ(to_description(reparsed), description) << text;
  expect_same_cluster(c, reparsed, text);
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
