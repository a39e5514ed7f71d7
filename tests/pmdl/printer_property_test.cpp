// Property test of the printer <-> parser round trip: generate a random
// well-formed model source, print its parse, re-parse the print, and assert
// the two compile to semantically identical models — same instantiation
// aggregates and the same scheme activation stream — plus the canonical-form
// fixed point (printing the re-parse is byte-identical).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pmdl/model.hpp"
#include "pmdl/parser.hpp"
#include "pmdl/printer.hpp"
#include "pmdl_test_util.hpp"
#include "support/rng.hpp"

namespace hmpi::pmdl {
namespace {

using support::Rng;
using testing::RecordingSink;

/// Random arithmetic expression over `terms`, guaranteed well-formed and
/// non-negative for non-negative terms (operators are + and * only).
std::string expr(Rng& rng, int depth, std::span<const char* const> terms) {
  if (depth == 0 || rng.next_below(3) == 0) {
    if (rng.next_below(2) == 0) {
      return std::to_string(rng.next_in(1, 9));
    }
    return terms[rng.next_below(terms.size())];
  }
  const char* op = rng.next_below(2) == 0 ? "+" : "*";
  return std::string("(").append(expr(rng, depth - 1, terms)) + op +
         expr(rng, depth - 1, terms) + ")";
}

/// One random scheme statement drawn from a pool of shapes that are valid
/// for any p >= 1 (loop bodies guard their own coordinate arithmetic).
std::string scheme_statement(Rng& rng) {
  switch (rng.next_below(5)) {
    case 0:
      return "    for (k = 0; k < p; k++) (100/p)%%[k];\n";
    case 1:
      return "    par (k = 0; k < p; k++) (" +
             std::to_string(rng.next_in(10, 100)) + "/p)%%[k];\n";
    case 2:
      return "    for (k = 0; k < p; k++) if (k > 0) (100/p)%%[k-1]->[k];\n";
    case 3:
      return "    par (k = 0; k < p; k++) par (j = 0; j < p; j++) "
             "if (k != j) (100/(p*p))%%[k]->[j];\n";
    default:
      return "    if (p % 2 == 0) " + std::to_string(rng.next_in(10, 90)) +
             "%%[0]; else " + std::to_string(rng.next_in(10, 90)) +
             "%%[p-1];\n";
  }
}

/// A random well-formed 1-D model: random node/link volume expressions and
/// a random scheme built from the statement pool above.
std::string random_source(std::uint64_t seed) {
  Rng rng(seed);
  static constexpr const char* kNodeTerms[] = {"I", "p"};
  static constexpr const char* kLinkTerms[] = {"I", "K", "p",
                                               "sizeof(double)"};
  std::string src = "algorithm Rnd(int p) {\n  coord I=p;\n";
  src += "  node { I>=0: bench*(" + expr(rng, 2, kNodeTerms) + "); };\n";
  src += "  link (K=p) { I!=K";
  if (rng.next_below(2) == 0) src += " && (I+K) % 2 == 0";
  src += ": length*(" + expr(rng, 2, kLinkTerms) + ") [I]->[K]; };\n";
  src += "  parent[0];\n  scheme {\n    int k, j;\n";
  const int statements = static_cast<int>(rng.next_in(1, 4));
  for (int s = 0; s < statements; ++s) src += scheme_statement(rng);
  src += "  };\n};\n";
  return src;
}

bool same_events(const RecordingSink::Event& a, const RecordingSink::Event& b) {
  return a.kind == b.kind && a.src == b.src && a.dst == b.dst &&
         a.percent == b.percent;
}

/// parse -> print -> re-parse must preserve every observable of the model:
/// instantiation aggregates and the scheme activation stream, at several
/// problem sizes; and the canonical form must be a fixed point.
void expect_semantic_round_trip(const std::string& source) {
  const auto parsed = parse(source);
  const std::string printed = to_source(*parsed);
  const auto reparsed = parse(printed);
  EXPECT_EQ(printed, to_source(*reparsed))
      << "canonical form is not a fixed point for:\n"
      << source;

  const Model original = Model::from_source(source);
  const Model round_tripped = Model::from_source(printed);
  for (long long p : {1, 3, 4}) {
    const std::vector<ParamValue> params{scalar(p)};
    const ModelInstance a = original.instantiate(params);
    const ModelInstance b = round_tripped.instantiate(params);
    EXPECT_EQ(a.shape(), b.shape()) << source;
    EXPECT_EQ(a.node_volumes(), b.node_volumes()) << source;
    EXPECT_EQ(a.link_bytes(), b.link_bytes()) << source;
    EXPECT_EQ(a.parent_index(), b.parent_index()) << source;
    ASSERT_EQ(a.has_scheme(), b.has_scheme()) << source;
    if (a.has_scheme()) {
      RecordingSink sa, sb;
      a.run_scheme(sa);
      b.run_scheme(sb);
      ASSERT_EQ(sa.events.size(), sb.events.size()) << source;
      for (std::size_t i = 0; i < sa.events.size(); ++i) {
        EXPECT_TRUE(same_events(sa.events[i], sb.events[i]))
            << "event " << i << " diverges for p=" << p << ":\n"
            << source;
      }
    }
  }
}

TEST(PrinterProperty, RandomModelsRoundTripSemantically) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_semantic_round_trip(random_source(seed));
  }
}

TEST(PrinterProperty, PaperModelsRoundTripSemantically) {
  // The hand-written fixtures go through the same, stronger check the
  // random models get (printer_test.cpp only compares aggregates).
  const auto parsed = parse(testing::em3d_source());
  const std::string printed = to_source(*parsed);
  const Model original = Model::from_source(testing::em3d_source());
  const Model round_tripped = Model::from_source(printed);
  const std::vector<ParamValue> params{
      scalar(3), scalar(10), array({20, 35, 40}),
      array({0, 5, 0, 5, 0, 7, 0, 7, 0})};
  const ModelInstance a = original.instantiate(params);
  const ModelInstance b = round_tripped.instantiate(params);
  RecordingSink sa, sb;
  a.run_scheme(sa);
  b.run_scheme(sb);
  ASSERT_EQ(sa.events.size(), sb.events.size());
  for (std::size_t i = 0; i < sa.events.size(); ++i) {
    EXPECT_TRUE(same_events(sa.events[i], sb.events[i])) << "event " << i;
  }
}

}  // namespace
}  // namespace hmpi::pmdl
