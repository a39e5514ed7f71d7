// Robustness of the PMDL front end on unusual-but-valid programs and on a
// second tier of malformed ones.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <regex>
#include <string>
#include <vector>

#include "pmdl/model.hpp"
#include "pmdl_test_util.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace hmpi::pmdl {
namespace {

using pmdl::testing::RecordingSink;
using Event = RecordingSink::Event;

TEST(Robustness, CommentsEverywhere) {
  Model m = Model::from_source(R"(
    // leading comment
    algorithm /* inline */ A(int p /* param */) {
      coord I=p; // trailing
      /* block
         spanning lines */
      node { I>=0: bench*(1 /* one */); };
    };
  )");
  EXPECT_EQ(m.name(), "A");
  EXPECT_DOUBLE_EQ(m.instantiate({scalar(2)}).node_volume(1), 1.0);
}

TEST(Robustness, DeeplyNestedParLoops) {
  Model m = Model::from_source(R"(
    algorithm A(int n) {
      coord I=n;
      scheme {
        int a, b, c;
        par (a = 0; a < 2; a++)
          par (b = 0; b < 2; b++)
            par (c = 0; c < 2; c++)
              if (a + b + c < n) 10%%[a + b + c];
      };
    })");
  auto inst = m.instantiate({scalar(4)});
  RecordingSink sink;
  inst.run_scheme(sink);
  EXPECT_EQ(sink.count(Event::kCompute), 8u);
  EXPECT_EQ(sink.count(Event::kParBegin), 1u + 2u + 4u);
}

TEST(Robustness, ElseIfChain) {
  Model m = Model::from_source(R"(
    algorithm A(int p) {
      coord I=p;
      scheme {
        int i;
        for (i = 0; i < p; i++)
          if (i == 0) 10%%[i];
          else if (i == 1) 20%%[i];
          else 30%%[i];
      };
    })");
  auto inst = m.instantiate({scalar(3)});
  RecordingSink sink;
  inst.run_scheme(sink);
  ASSERT_EQ(sink.count(Event::kCompute), 3u);
  EXPECT_DOUBLE_EQ(sink.events[0].percent, 10.0);
  EXPECT_DOUBLE_EQ(sink.events[1].percent, 20.0);
  EXPECT_DOUBLE_EQ(sink.events[2].percent, 30.0);
}

TEST(Robustness, OverlappingNodeClausesFirstWins) {
  Model m = Model::from_source(R"(
    algorithm A(int p) {
      coord I=p;
      node {
        I % 2 == 0: bench*(100);
        I >= 0:     bench*(1);
        I >= 0:     bench*(999);
      };
    })");
  auto inst = m.instantiate({scalar(4)});
  EXPECT_DOUBLE_EQ(inst.node_volume(0), 100.0);
  EXPECT_DOUBLE_EQ(inst.node_volume(1), 1.0);
  EXPECT_DOUBLE_EQ(inst.node_volume(2), 100.0);
}

TEST(Robustness, LinkWithoutIteratorVariables) {
  Model m = Model::from_source(R"(
    algorithm A(int p) {
      coord I=p;
      link { I > 0: length*(64) [I]->[0]; };
    })");
  auto inst = m.instantiate({scalar(3)});
  EXPECT_EQ(inst.link_bytes().size(), 2u);
  EXPECT_DOUBLE_EQ(inst.link_bytes().at({1, 0}), 64.0);
  EXPECT_DOUBLE_EQ(inst.link_bytes().at({2, 0}), 64.0);
}

TEST(Robustness, OmittedParentDefaultsToOrigin) {
  Model m = Model::from_source("algorithm A(int m) { coord I=m, J=m; }");
  EXPECT_EQ(m.instantiate({scalar(3)}).parent_index(), 0);
}

TEST(Robustness, ThreeDimensionalCoordinates) {
  Model m = Model::from_source(R"(
    algorithm A(int a, int b, int c) {
      coord I=a, J=b, K=c;
      node { I+J+K >= 0: bench*(I*100 + J*10 + K); };
      parent[1, 0, 1];
    })");
  auto inst = m.instantiate({scalar(2), scalar(3), scalar(2)});
  EXPECT_EQ(inst.size(), 12);
  EXPECT_EQ(inst.parent_index(), 7);  // ((1*3)+0)*2 + 1
  const long long coords[3] = {1, 2, 1};
  EXPECT_DOUBLE_EQ(inst.node_volume(static_cast<int>(inst.flatten(coords))), 121.0);
}

TEST(Robustness, SelfLinkClausesAreDropped) {
  // A clause that evaluates to src == dst defines no link (self transfers
  // are free in the model).
  Model m = Model::from_source(R"(
    algorithm A(int p) {
      coord I=p;
      link (J=p) { I >= 0: length*(8) [I]->[J]; };
    })");
  auto inst = m.instantiate({scalar(2)});
  EXPECT_EQ(inst.link_bytes().count({0, 0}), 0u);
  EXPECT_EQ(inst.link_bytes().count({1, 1}), 0u);
  EXPECT_EQ(inst.link_bytes().size(), 2u);
}

TEST(Robustness, MalformedProgramsSecondTier) {
  // Each throws a PmdlError rather than crashing or hanging.
  const char* broken[] = {
      "",                                              // empty
      "algorithm",                                     // truncated
      "algorithm A(int p) { coord I=p;",               // unclosed brace
      "algorithm A(int p) { coord I=p; node { 1: bench(3); }; }",  // no '*'
      "algorithm A(int p) { coord I=p; link { 1: length*(8) [0]; }; }",  // no dst
      "algorithm A(int p) { coord I=p; scheme { 100%%; }; }",  // no coords
      "algorithm A(int p) { coord I=p; scheme { par (;;) 100%%[0]; }; }",
      "algorithm A(int p, int p2, ) { coord I=p; }",   // trailing comma
      "typedef struct {int I;} ; algorithm A(int p) { coord I=p; }",  // no name
  };
  for (const char* source : broken) {
    EXPECT_THROW(Model::from_source(source), PmdlError) << source;
  }
}

TEST(Robustness, HugeButBoundedInstantiation) {
  // 64 abstract processors with a dense link matrix: instantiation stays
  // well-behaved (this is beyond any sensible HNOC, not beyond the code).
  Model m = Model::from_source(R"(
    algorithm A(int p) {
      coord I=p;
      node { I>=0: bench*(I+1); };
      link (J=p) { I != J: length*(8) [I]->[J]; };
    })");
  auto inst = m.instantiate({scalar(64)});
  EXPECT_EQ(inst.size(), 64);
  EXPECT_EQ(inst.link_bytes().size(), 64u * 63u);
}

/// Checks every activation of a replay against the instance's shape and
/// counts the events; keeps the first problem it sees.
class CheckingSink : public ScheduleSink {
 public:
  explicit CheckingSink(std::span<const long long> shape) : shape_(shape) {}

  void compute(std::span<const long long> coords, double percent) override {
    check(coords, percent);
  }
  void transfer(std::span<const long long> src, std::span<const long long> dst,
                double percent) override {
    check(src, percent);
    check(dst, percent);
  }
  void par_begin() override { ++depth_; }
  void par_iter_begin() override {
    if (depth_ == 0) note("par iteration outside a par");
  }
  void par_end() override {
    if (depth_-- == 0) note("unbalanced par end");
  }

  std::string problem;

 private:
  void check(std::span<const long long> coords, double percent) {
    if (!std::isfinite(percent) || percent < 0.0) note("bad percent");
    if (coords.size() != shape_.size()) note("bad coordinate count");
    for (std::size_t d = 0; d < coords.size() && d < shape_.size(); ++d) {
      if (coords[d] < 0 || coords[d] >= shape_[d]) note("coordinate out of range");
    }
  }
  void note(const char* what) {
    if (problem.empty()) problem = what;
  }

  std::span<const long long> shape_;
  int depth_ = 0;
};

/// GetProcessor for mutants: the cumulative widths/heights walk of
/// src/apps/matmul, rejecting arguments that mutants make malformed.
void checked_get_processor(std::vector<Value>& args) {
  if (args.size() != 6) throw PmdlError("GetProcessor expects 6 arguments");
  const long long row = as_int(args[0]);
  const long long col = as_int(args[1]);
  const long long m = as_int(args[2]);
  const auto* h = std::get_if<ArrayRef>(&args[3]);
  const auto* w = std::get_if<ArrayRef>(&args[4]);
  auto* root = std::get_if<StructVal>(&args[5]);
  // w's size bounds m before m^4 is formed.
  if (m < 1 || h == nullptr || w == nullptr || root == nullptr ||
      root->fields.size() < 2 || w->offset != 0 || h->offset != 0 ||
      w->data->data.size() != static_cast<std::size_t>(m) ||
      h->data->data.size() != static_cast<std::size_t>(m * m * m * m)) {
    throw PmdlError("GetProcessor: malformed arguments");
  }
  auto h_diag = [&](long long i, long long j) {
    return h->data->data[static_cast<std::size_t>(((i * m + j) * m + i) * m + j)];
  };
  long long j = 0;
  long long acc = w->data->data[0];
  while (col >= acc && j + 1 < m) acc += w->data->data[static_cast<std::size_t>(++j)];
  long long i = 0;
  long long hacc = h_diag(0, j);
  while (row >= hacc && i + 1 < m) hacc += h_diag(++i, j);
  root->fields[0] = i;
  root->fields[1] = j;
}

/// The tokens of a model text, comments dropped.
std::vector<std::string> tokens_of(const std::string& source) {
  static const std::regex token(
      R"(//[^\n]*|/\*[\s\S]*?\*/|[A-Za-z_][A-Za-z_0-9]*|[0-9]+|%%|->|&&|\|\||[=!<>+\-]=|\+\+|--|\S)");
  std::vector<std::string> out;
  for (auto it = std::sregex_iterator(source.begin(), source.end(), token);
       it != std::sregex_iterator(); ++it) {
    const std::string text = it->str();
    if (text.rfind("//", 0) != 0 && text.rfind("/*", 0) != 0) out.push_back(text);
  }
  return out;
}

TEST(Robustness, TokenMutationsOfTheShippedModelsThrowOrStayUsable) {
  // Seeded mutations of every shipped model, one or two per trial, token by
  // token: delete a token, duplicate it, or replace it with another token of
  // the same model or an adversarial one. Each mutant must throw hmpi::Error
  // from from_source, instantiate or run_scheme, or yield finite,
  // non-negative volumes and bytes and a replay that ends within
  // kMaxLoopIterations with in-range activations.
  struct Case {
    const char* source;
    std::vector<ParamValue> params;
  };
  const std::vector<Case> cases = {
      {testing::parallel_axb_source(),
       {scalar(2), scalar(2), scalar(4), scalar(2), array({1, 1}),
        array(std::vector<long long>(16, 1))}},
      {testing::em3d_source(),
       {scalar(3), scalar(10), array({20, 35, 40}),
        array({0, 5, 0, 5, 0, 7, 0, 7, 0})}},
      {testing::jacobi_source(), {scalar(3), array({4, 5, 6}), scalar(8)}},
      {testing::quickstart_ring_source(), {scalar(3), array({200, 1000, 400})}},
      {testing::example_work_source(), {scalar(3), array({100, 900, 400})}},
  };
  // Replacements keep a token's class (name, number, operator or
  // punctuation), so that more mutants parse and reach sema and the
  // evaluator; a name may also become a number, as an operand can.
  const auto token_class = [](const std::string& token) {
    if (std::isalpha(static_cast<unsigned char>(token[0])) || token[0] == '_') return 0;
    if (std::isdigit(static_cast<unsigned char>(token[0]))) return 1;
    return std::string("()[]{};,:").find(token[0]) != std::string::npos ? 3 : 2;
  };
  const std::vector<std::string> adversarial[4] = {
      {"x", "int", "Processor", "0", "2147483647", "9223372036854775807"},
      {"0", "1", "3000000", "2147483647", "9223372036854775807",
       "9223372036854775808"},
      {"-", "*", "/", "%", "++", "--", "&", "=", "+=", "<", "!", "%%", "->"},
      {"(", ")", "[", "]", "{", "}", ";", ",", ":"}};

  support::Rng rng(2003);
  int accepted = 0;
  int rejected = 0;
  for (const Case& c : cases) {
    const std::vector<std::string> tokens = tokens_of(c.source);
    for (int trial = 0; trial < 250; ++trial) {
      std::vector<std::string> mutant = tokens;
      const int mutations = 1 + static_cast<int>(rng.next_below(2));
      for (int m = 0; m < mutations; ++m) {
        const auto at = static_cast<std::size_t>(rng.next_below(mutant.size()));
        const auto offset = static_cast<std::ptrdiff_t>(at);
        const int cls = token_class(mutant[at]);
        switch (rng.next_below(8)) {
          case 0:
            mutant.erase(mutant.begin() + offset);
            break;
          case 1:
            mutant.insert(mutant.begin() + offset, mutant[at]);
            break;
          case 2:
          case 3: {
            const auto& pool = adversarial[cls];
            mutant[at] = pool[rng.next_below(pool.size())];
            break;
          }
          default:
            for (;;) {
              const std::string& other = tokens[rng.next_below(tokens.size())];
              if (token_class(other) == cls) {
                mutant[at] = other;
                break;
              }
            }
        }
      }
      std::string text;
      for (const std::string& token : mutant) text += token + " ";
      try {
        Model model = Model::from_source(text);
        model.register_native("GetProcessor", checked_get_processor);
        const ModelInstance instance = model.instantiate(c.params);
        for (const double v : instance.node_volumes()) {
          EXPECT_TRUE(std::isfinite(v) && v >= 0.0) << v << " in " << text;
        }
        for (const auto& [pair, bytes] : instance.link_bytes()) {
          EXPECT_TRUE(std::isfinite(bytes) && bytes >= 0.0) << bytes << " in " << text;
        }
        if (instance.has_scheme()) {
          CheckingSink sink(instance.shape());
          instance.run_scheme(sink);
          EXPECT_EQ(sink.problem, "") << text;
        }
        ++accepted;
      } catch (const Error&) {
        ++rejected;
      }
    }
  }
  // Both outcomes occur, so the corpus reaches the evaluator as well as the
  // front end's checks.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace hmpi::pmdl
