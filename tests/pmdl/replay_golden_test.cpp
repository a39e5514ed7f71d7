// Golden replay fixtures of the shipped performance models.
//
// fixture_text() instantiates every model the library and its examples
// ship, at the parameters their figures and examples use, and prints what
// the instance holds: the scheme's activation stream (kind, flat
// coordinates, percent in hexfloat, par markers), the node volumes and the
// link bytes. Each part is stored as an entry count and a 64-bit FNV-1a
// digest of its lines; the smallest stream is also stored in full.
// tests/pmdl/golden/replay.txt holds this text as recorded from the
// evaluator that looked names up by string at run time, so it pins that the
// slot-resolved evaluator replays every model identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "../golden_text.hpp"
#include "apps/em3d/app.hpp"
#include "apps/em3d/body.hpp"
#include "apps/jacobi/jacobi.hpp"
#include "apps/matmul/app.hpp"
#include "apps/matmul/partition.hpp"
#include "pmdl/model.hpp"
#include "pmdl_test_util.hpp"

namespace hmpi::pmdl {
namespace {

/// Lines of one part of a fixture, with their count and digest.
class FixturePart {
 public:
  void line(const std::string& text) {
    for (const char c : text) mix(static_cast<unsigned char>(c));
    mix('\n');
    ++count_;
    if (keep_) text_ += text + "\n";
  }
  void keep_text() { keep_ = true; }

  std::string summary(const char* label) const {
    char out[96];
    std::snprintf(out, sizeof out, "%s %zu %016llx\n", label, count_,
                  static_cast<unsigned long long>(hash_));
    return out;
  }
  const std::string& text() const { return text_; }

 private:
  void mix(unsigned char byte) {
    hash_ ^= byte;
    hash_ *= 0x100000001b3ULL;
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
  std::size_t count_ = 0;
  bool keep_ = false;
  std::string text_;
};

using golden::hexfloat;

std::string coord_text(std::span<const long long> coords) {
  std::string out;
  for (const long long c : coords) {
    if (!out.empty()) out += ',';
    out += std::to_string(c);
  }
  return out;
}

/// Prints each sink callback as one line of `part`.
class StreamPrinter : public ScheduleSink {
 public:
  explicit StreamPrinter(FixturePart& part) : part_(part) {}

  void compute(std::span<const long long> coords, double percent) override {
    part_.line("C " + coord_text(coords) + " " + hexfloat(percent));
  }
  void transfer(std::span<const long long> src, std::span<const long long> dst,
                double percent) override {
    part_.line("T " + coord_text(src) + " -> " + coord_text(dst) + " " +
               hexfloat(percent));
  }
  void par_begin() override { part_.line("PB"); }
  void par_iter_begin() override { part_.line("PI"); }
  void par_end() override { part_.line("PE"); }

 private:
  FixturePart& part_;
};

/// The fixture text of one instance: three summary lines, then (when
/// `full_text`) the stream, volumes and links line by line.
std::string instance_fixture(const std::string& name,
                             const ModelInstance& instance,
                             bool full_text = false) {
  FixturePart stream;
  FixturePart volumes;
  FixturePart links;
  if (full_text) {
    stream.keep_text();
    volumes.keep_text();
    links.keep_text();
  }
  StreamPrinter printer(stream);
  instance.run_scheme(printer);
  for (std::size_t i = 0; i < instance.node_volumes().size(); ++i) {
    volumes.line(std::to_string(i) + " " + hexfloat(instance.node_volumes()[i]));
  }
  for (const auto& [pair, bytes] : instance.link_bytes()) {
    links.line(std::to_string(pair.first) + " " + std::to_string(pair.second) +
               " " + hexfloat(bytes));
  }
  std::string out = "case " + name + " parent " +
                    std::to_string(instance.parent_index()) + "\n";
  out += stream.summary("stream") + volumes.summary("volumes") +
         links.summary("links");
  out += stream.text() + volumes.text() + links.text();
  return out;
}

/// The generalised block sizes the Fig 8 Timeof sweep tries for m x m
/// grids and n x n blocks (apps::matmul::run_hmpi with l = 0).
std::vector<int> swept_block_sizes(int m, int n) {
  std::vector<int> ls;
  for (int l = m; l <= n; l = std::max(l + 1, l + (n - m) / 8)) ls.push_back(l);
  if (ls.empty() || ls.back() != n) ls.push_back(n);
  return ls;
}

/// Every case of tests/pmdl/golden/replay.txt, in file order.
std::string fixture_text() {
  std::string out;

  // ParallelAxB on the Fig 11 grid: the host's speed first, then the
  // fastest m*m - 1 other machines of paper_mm_network in descending order.
  const std::vector<double> grid_speeds{46, 106, 46, 46, 46, 46, 46, 46, 9};
  const Model axb = apps::matmul::performance_model();
  for (const int n : {36, 18}) {
    for (const int l : swept_block_sizes(3, n)) {
      const auto params = apps::matmul::model_parameters(
          3, 9, n, apps::matmul::Partition(3, l, grid_speeds));
      out += instance_fixture(
          "ParallelAxB m=3 r=9 n=" + std::to_string(n) + " l=" + std::to_string(l),
          axb.instantiate(params));
    }
  }

  // Em3d on the Fig 9 x1 decomposition with k = 100.
  apps::em3d::GeneratorConfig em3d;
  for (const int b : {400, 500, 700, 550, 650, 600, 800, 100, 205}) {
    em3d.nodes_per_subbody.push_back(b);
  }
  em3d.degree = 5;
  em3d.remote_fraction = 0.05;
  em3d.seed = 2003;
  out += instance_fixture(
      "Em3d fig9 x1 k=100",
      apps::em3d::performance_model().instantiate(apps::em3d::model_parameters(
          apps::em3d::generate(em3d), 100)));

  const std::vector<int> rows{50, 120, 80, 62};
  out += instance_fixture(
      "Jacobi p=4 cols=256",
      apps::jacobi::performance_model().instantiate(
          apps::jacobi::model_parameters(rows, 256)));

  out += instance_fixture(
      "Ring quickstart",
      Model::from_source(testing::quickstart_ring_source())
          .instantiate({scalar(3), array({200, 1000, 400})}),
      /*full_text=*/true);
  const Model work = Model::from_source(testing::example_work_source());
  out += instance_fixture("Work custom_cluster",
                          work.instantiate({scalar(3), array({100, 900, 400})}));
  out += instance_fixture(
      "Work adaptive_load",
      work.instantiate({scalar(4), array({500, 4000, 2000, 1000})}));
  out += instance_fixture("Work live_migration",
                          work.instantiate({scalar(3), array({10, 10, 10})}));
  return out;
}

using golden::first_difference;

TEST(ReplayGolden, ShippedModelsReplayAsRecorded) {
  const std::string path = std::string(HMPI_PMDL_GOLDEN_DIR) + "/replay.txt";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden fixture " << path;
  std::ostringstream expected;
  expected << in.rdbuf();
  const std::string diff = first_difference(expected.str(), fixture_text());
  EXPECT_TRUE(diff.empty()) << path << " differs at " << diff;
}

}  // namespace
}  // namespace hmpi::pmdl
