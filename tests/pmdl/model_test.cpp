#include "pmdl/model.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "pmdl/eval.hpp"
#include "pmdl_test_util.hpp"
#include "support/error.hpp"

namespace hmpi::pmdl {
namespace {

using pmdl::testing::RecordingSink;
using Event = RecordingSink::Event;

// --- EM3D (paper Figure 4) ---------------------------------------------------

ModelInstance em3d_instance() {
  Model m = Model::from_source(pmdl::testing::em3d_source());
  // p=3 subbodies, benchmark computes k=10 nodes, d node counts,
  // dep[I][L] = nodal values subbody I needs from subbody L.
  return m.instantiate(
      {scalar(3), scalar(10), array({20, 35, 40}),
       array({0, 5, 0,
              5, 0, 7,
              0, 7, 0})});
}

TEST(Em3dModel, ShapeAndParent) {
  auto inst = em3d_instance();
  EXPECT_EQ(inst.shape(), (std::vector<long long>{3}));
  EXPECT_EQ(inst.size(), 3);
  EXPECT_EQ(inst.parent_index(), 0);
  EXPECT_EQ(inst.model_name(), "Em3d");
}

TEST(Em3dModel, NodeVolumesAreDOverK) {
  auto inst = em3d_instance();
  EXPECT_DOUBLE_EQ(inst.node_volume(0), 2.0);  // 20/10
  EXPECT_DOUBLE_EQ(inst.node_volume(1), 3.0);  // 35/10 (C integer division)
  EXPECT_DOUBLE_EQ(inst.node_volume(2), 4.0);  // 40/10
}

TEST(Em3dModel, LinkVolumesFollowDepMatrix) {
  auto inst = em3d_instance();
  const auto& links = inst.link_bytes();
  ASSERT_EQ(links.size(), 4u);
  // dep[I][L] values are received by I from L: bytes = dep * sizeof(double).
  EXPECT_DOUBLE_EQ(links.at({1, 0}), 40.0);  // dep[0][1]=5 -> [1]->[0]
  EXPECT_DOUBLE_EQ(links.at({0, 1}), 40.0);  // dep[1][0]=5
  EXPECT_DOUBLE_EQ(links.at({2, 1}), 56.0);  // dep[1][2]=7
  EXPECT_DOUBLE_EQ(links.at({1, 2}), 56.0);  // dep[2][1]=7
  EXPECT_EQ(links.count({2, 0}), 0u);        // dep[0][2]=0: no link
}

TEST(Em3dModel, SchemeReplaysOneIteration) {
  auto inst = em3d_instance();
  ASSERT_TRUE(inst.has_scheme());
  RecordingSink sink;
  inst.run_scheme(sink);
  // One transfer per dep>0 pair, all at 100%.
  EXPECT_EQ(sink.count(Event::kTransfer), 4u);
  // One compute per subbody at 100%.
  EXPECT_EQ(sink.count(Event::kCompute), 3u);
  for (const auto& e : sink.events) {
    if (e.kind == Event::kTransfer || e.kind == Event::kCompute) {
      EXPECT_DOUBLE_EQ(e.percent, 100.0);
    }
  }
  // par structure: outer comm par + nested per owner (3) + compute par.
  EXPECT_EQ(sink.count(Event::kParBegin), 5u);
  EXPECT_EQ(sink.count(Event::kParEnd), 5u);
}

// --- ParallelAxB (paper Figure 7) ---------------------------------------------

/// GetProcessor: maps (row, col) of an r-block inside a generalised block to
/// the grid coordinates of the abstract processor owning it (cumulative
/// widths/heights walk, as in the paper's heterogeneous distribution).
void get_processor(std::vector<Value>& args) {
  ASSERT_EQ(args.size(), 6u);
  const long long row = as_int(args[0]);
  const long long col = as_int(args[1]);
  const long long m = as_int(args[2]);
  const auto& h = std::get<ArrayRef>(args[3]);
  const auto& w = std::get<ArrayRef>(args[4]);
  auto& root = std::get<StructVal>(args[5]);

  auto w_at = [&](long long j) { return w.data->data[static_cast<std::size_t>(j)]; };
  auto h_diag = [&](long long i, long long j) {
    const auto idx = ((i * m + j) * m + i) * m + j;
    return h.data->data[static_cast<std::size_t>(idx)];
  };

  long long j = 0, acc = w_at(0);
  while (col >= acc && j + 1 < m) acc += w_at(++j);
  long long i = 0, hacc = h_diag(0, j);
  while (row >= hacc && i + 1 < m) hacc += h_diag(++i, j);
  root.fields[0] = i;
  root.fields[1] = j;
}

ModelInstance axb_instance() {
  Model m = Model::from_source(pmdl::testing::parallel_axb_source());
  m.register_native("GetProcessor", get_processor);
  // m=2 grid, r=2 blocks, n=4 blocks per matrix side, l=2 generalised block,
  // homogeneous partition: w = {1,1}, h[I][J][K][L] = 1 everywhere.
  std::vector<long long> h(16, 1);
  return m.instantiate({scalar(2), scalar(2), scalar(4), scalar(2),
                        array({1, 1}), array(h)});
}

TEST(AxbModel, ShapeAndParent) {
  auto inst = axb_instance();
  EXPECT_EQ(inst.shape(), (std::vector<long long>{2, 2}));
  EXPECT_EQ(inst.size(), 4);
  EXPECT_EQ(inst.parent_index(), 0);
}

TEST(AxbModel, NodeVolumes) {
  auto inst = axb_instance();
  // w[J]*h*(n/l)^2*n = 1*1*4*4 = 16 benchmark units each.
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(inst.node_volume(i), 16.0);
}

TEST(AxbModel, LinkVolumesCoverAllPairs) {
  auto inst = axb_instance();
  const auto& links = inst.link_bytes();
  // All 12 directed pairs get w*h*(n/l)^2*r^2*8 = 1*1*4*4*8 = 128 bytes.
  ASSERT_EQ(links.size(), 12u);
  for (const auto& [pair, bytes] : links) {
    EXPECT_NE(pair.first, pair.second);
    EXPECT_DOUBLE_EQ(bytes, 128.0);
  }
}

TEST(AxbModel, SchemeEventCounts) {
  auto inst = axb_instance();
  RecordingSink sink;
  inst.run_scheme(sink);
  // Per step k (n=4 steps): A-pivot roots (2) each send to the 2 processors
  // of the other column -> 4; B-pivot roots (2) each send to the 1 other
  // processor of their column -> 2; computes: 4.
  EXPECT_EQ(sink.count(Event::kTransfer), 4u * (4u + 2u));
  EXPECT_EQ(sink.count(Event::kCompute), 4u * 4u);
}

TEST(AxbModel, SchemePercentages) {
  auto inst = axb_instance();
  RecordingSink sink;
  inst.run_scheme(sink);
  for (const auto& e : sink.events) {
    if (e.kind == Event::kCompute) {
      EXPECT_DOUBLE_EQ(e.percent, 25.0);  // 100/n, n=4
    } else if (e.kind == Event::kTransfer) {
      EXPECT_DOUBLE_EQ(e.percent, 50.0);  // 100/(1*(n/l)) = 100/2
    }
  }
}

TEST(AxbModel, UnregisteredNativeThrows) {
  Model m = Model::from_source(pmdl::testing::parallel_axb_source());
  std::vector<long long> h(16, 1);
  auto inst = m.instantiate({scalar(2), scalar(2), scalar(4), scalar(2),
                             array({1, 1}), array(h)});
  RecordingSink sink;
  EXPECT_THROW(inst.run_scheme(sink), PmdlError);
}

// --- generic model behaviour ---------------------------------------------------

TEST(Model, ParamCountMismatchThrows) {
  Model m = Model::from_source("algorithm A(int p) { coord I=p; }");
  EXPECT_THROW(m.instantiate({}), PmdlError);
  EXPECT_THROW(m.instantiate({scalar(1), scalar(2)}), PmdlError);
}

TEST(Model, ScalarArrayMismatchThrows) {
  Model m = Model::from_source("algorithm A(int p, int d[p]) { coord I=p; }");
  EXPECT_THROW(m.instantiate({scalar(2), scalar(5)}), PmdlError);
  EXPECT_THROW(m.instantiate({array({1}), array({1, 2})}), PmdlError);
}

TEST(Model, ArraySizeMismatchThrows) {
  Model m = Model::from_source("algorithm A(int p, int d[p]) { coord I=p; }");
  EXPECT_THROW(m.instantiate({scalar(3), array({1, 2})}), PmdlError);
}

TEST(Model, NonPositiveCoordExtentThrows) {
  Model m = Model::from_source("algorithm A(int p) { coord I=p; }");
  EXPECT_THROW(m.instantiate({scalar(0)}), PmdlError);
  EXPECT_THROW(m.instantiate({scalar(-2)}), PmdlError);
}

TEST(Model, NoMatchingNodeClauseMeansZeroVolume) {
  Model m = Model::from_source(
      "algorithm A(int p) { coord I=p; node { I>0: bench*(5); }; }");
  auto inst = m.instantiate({scalar(2)});
  EXPECT_DOUBLE_EQ(inst.node_volume(0), 0.0);
  EXPECT_DOUBLE_EQ(inst.node_volume(1), 5.0);
}

TEST(Model, FirstMatchingNodeClauseWins) {
  Model m = Model::from_source(
      "algorithm A(int p) { coord I=p;"
      " node { I==0: bench*(1); I>=0: bench*(2); }; }");
  auto inst = m.instantiate({scalar(2)});
  EXPECT_DOUBLE_EQ(inst.node_volume(0), 1.0);
  EXPECT_DOUBLE_EQ(inst.node_volume(1), 2.0);
}

TEST(Model, FlattenUnflattenRoundTrip) {
  Model m = Model::from_source("algorithm A(int a, int b) { coord I=a, J=b; }");
  auto inst = m.instantiate({scalar(3), scalar(4)});
  for (long long i = 0; i < 12; ++i) {
    EXPECT_EQ(inst.flatten(inst.unflatten(i)), i);
  }
  const long long coords[2] = {2, 3};
  EXPECT_EQ(inst.flatten(coords), 11);
  EXPECT_THROW(inst.unflatten(12), hmpi::InvalidArgument);
}

TEST(Model, SchemeParStructure) {
  Model m = Model::from_source(R"(
    algorithm A(int p) {
      coord I=p;
      scheme { int i; par (i = 0; i < p; i++) 100%%[i]; };
    })");
  auto inst = m.instantiate({scalar(3)});
  RecordingSink sink;
  inst.run_scheme(sink);
  std::vector<Event::Kind> expected{
      Event::kParBegin, Event::kParIterBegin, Event::kCompute,
      Event::kParIterBegin, Event::kCompute, Event::kParIterBegin,
      Event::kCompute, Event::kParEnd};
  ASSERT_EQ(sink.events.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(sink.events[i].kind, expected[i]) << "event " << i;
  }
}

TEST(Model, SchemeLoopVariableMutationInBody) {
  // `par (i = 0; i < 4; )` with `i += 2` in the body (Figure 7's A-pivot
  // walk pattern): the loop variable persists across par iterations.
  Model m = Model::from_source(R"(
    algorithm A(int p) {
      coord I=p;
      scheme {
        int i;
        par (i = 0; i < 4; ) { 100%%[i]; i += 2; }
      };
    })");
  auto inst = m.instantiate({scalar(4)});
  RecordingSink sink;
  inst.run_scheme(sink);
  ASSERT_EQ(sink.count(Event::kCompute), 2u);
  EXPECT_EQ(sink.events[2].src, (std::vector<long long>{0}));
  EXPECT_EQ(sink.events[4].src, (std::vector<long long>{2}));
}

TEST(Model, SchemeCoordinateOutOfRangeThrows) {
  Model m = Model::from_source(R"(
    algorithm A(int p) { coord I=p; scheme { 100%%[p]; }; })");
  auto inst = m.instantiate({scalar(2)});
  RecordingSink sink;
  EXPECT_THROW(inst.run_scheme(sink), PmdlError);
}

// Activations, link endpoints and the parent evaluate their coordinates the
// same way, so each out-of-range one names the value, the range and the
// dimension.
TEST(Model, OutOfRangeCoordinatesNameValueRangeAndDimension) {
  const auto message_of = [](const char* source, bool replay) {
    try {
      auto inst = Model::from_source(source).instantiate({scalar(2)});
      RecordingSink sink;
      if (replay) inst.run_scheme(sink);
    } catch (const PmdlError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const auto expect_names = [](const std::string& what,
                               const std::string& expected) {
    EXPECT_NE(what.find(expected), std::string::npos) << what;
  };
  expect_names(message_of(R"(
    algorithm A(int p) { coord I=p, J=3; scheme { 100%%[0, 4]; }; })",
                          true),
               "coordinate 4 out of range [0, 3) in dimension 1");
  expect_names(message_of(R"(
    algorithm A(int p) {
      coord I=p, J=3;
      link { I>=0 : length*(8) [I, 0]->[I, 5]; };
    })",
                          false),
               "link endpoint coordinate 5 out of range [0, 3) in dimension 1");
  expect_names(message_of(R"(
    algorithm A(int p) { coord I=p, J=3; parent[p, 0]; })", false),
               "parent coordinate 2 out of range [0, 2) in dimension 0");
}

TEST(Model, RunawayLoopIsCaught) {
  Model m = Model::from_source(R"(
    algorithm A(int p) {
      coord I=p;
      scheme { int i; for (i = 0; i >= 0; ) i += 0; };
    })");
  auto inst = m.instantiate({scalar(1)});
  RecordingSink sink;
  EXPECT_THROW(inst.run_scheme(sink), PmdlError);
}

TEST(Model, NestedRunawayLoopsAreCaught) {
  // Each loop stays under kMaxLoopIterations (2^24), their product does
  // not: the cap counts every iteration of one replay, so a nest of loops
  // that would run ~2^24 x 2^24 iterations fails instead of hanging.
  static_assert(4097LL * 4096 > kMaxLoopIterations);
  Model m = Model::from_source(R"(
    algorithm A(int p) {
      coord I=p;
      scheme {
        int i, j;
        for (i = 0; i < 4097; i++)
          for (j = 0; j < 4096; j++) { }
      };
    })");
  auto inst = m.instantiate({scalar(1)});
  RecordingSink sink;
  try {
    inst.run_scheme(sink);
    FAIL() << "expected the iteration cap to trip";
  } catch (const PmdlError& e) {
    EXPECT_NE(std::string(e.what()).find("iteration limit"), std::string::npos)
        << e.what();
  }
  // The count is per replay: a replay well under the cap still runs.
  Model small = Model::from_source(R"(
    algorithm A(int p) {
      coord I=p;
      scheme { int i, j; for (i = 0; i < 64; i++) for (j = 0; j < 64; j++) { } };
    })");
  auto fine = small.instantiate({scalar(1)});
  for (int replay = 0; replay < 3; ++replay) {
    RecordingSink ok;
    EXPECT_NO_THROW(fine.run_scheme(ok));
  }
}

TEST(Model, SchemeLocalShadowsOuterUntilItsBlockEnds) {
  Model m = Model::from_source(R"(
    algorithm A(int p) {
      coord I=p;
      scheme {
        int x = 1;
        100%%[x];
        {
          int x = 3;
          100%%[x];
          { int p = 0; 100%%[p]; }
          100%%[p - 1];
        }
        100%%[x];
      };
    })");
  auto inst = m.instantiate({scalar(5)});
  RecordingSink sink;
  inst.run_scheme(sink);
  ASSERT_EQ(sink.events.size(), 5u);
  const std::vector<long long> expected{1, 3, 0, 4, 1};
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(sink.events[k].src, (std::vector<long long>{expected[k]}))
        << "activation " << k;
  }
}

TEST(Model, NativeWriteBacksLandAfterTheScopeStackGrew) {
  // `s` and `n` are bound first; dozens of later bindings in nested scopes
  // grow the environment before the &s, &s.J and &n write-backs.
  std::string decls;
  for (int k = 0; k < 40; ++k) decls += "int a" + std::to_string(k) + ";\n";
  std::string inner;
  for (int k = 0; k < 40; ++k) inner += "int b" + std::to_string(k) + " = 1;\n";
  Model m = Model::from_source(R"(
    typedef struct {int I; int J;} Pair;
    algorithm A(int p) {
      coord I=p;
      scheme {
        Pair s;
        int n = 0;
        )" + decls + R"(
        {
          )" + inner + R"(
          Fill(&s);
          Put(6, &s.J);
          Put(5, &n);
          { int c = 0; 100%%[s.I]; 100%%[s.J]; 100%%[n]; }
        }
        100%%[s.I]; 100%%[s.J]; 100%%[n];
      };
    })");
  m.register_native("Fill", [](std::vector<Value>& args) {
    auto& sv = std::get<StructVal>(args[0]);
    sv.fields[0] = 3;
    sv.fields[1] = 4;
  });
  m.register_native("Put",
                    [](std::vector<Value>& args) { args[1] = args[0]; });
  auto inst = m.instantiate({scalar(8)});
  RecordingSink sink;
  inst.run_scheme(sink);
  ASSERT_EQ(sink.events.size(), 6u);
  const std::vector<long long> expected{3, 6, 5, 3, 6, 5};
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(sink.events[k].src, (std::vector<long long>{expected[k]}))
        << "activation " << k;
  }
}

TEST(Model, SameScopeRedefinitionFailsAndShadowingDoesNot) {
  for (const char* redefined : {
           "int x; int x;",
           "int x; { int y; } int x;",
           "{ int x; int x = 1; }",
       }) {
    try {
      Model::from_source(std::string("algorithm A(int p) { coord I=p; scheme { ") +
                         redefined + " }; }");
      ADD_FAILURE() << "expected a redefinition error for " << redefined;
    } catch (const PmdlError& e) {
      EXPECT_NE(std::string(e.what()).find("redefinition of 'x'"),
                std::string::npos)
          << e.what();
    }
  }
  // A nested scope may shadow a local or a parameter; the outer binding is
  // visible again once the nested scope ends.
  Model m = Model::from_source(R"(
    algorithm A(int p) {
      coord I=p;
      scheme {
        int x = 1;
        { int x = 2; int p = 0; 100%%[x]; 100%%[p]; }
        100%%[x]; 100%%[p - 1];
      };
    })");
  auto inst = m.instantiate({scalar(4)});
  RecordingSink sink;
  inst.run_scheme(sink);
  ASSERT_EQ(sink.events.size(), 4u);
  const std::vector<long long> expected{2, 0, 1, 3};
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(sink.events[k].src, (std::vector<long long>{expected[k]}))
        << "activation " << k;
  }
}

TEST(Model, DeclarationsStartFreshInSlotsThatSiblingScopesReuse) {
  // Sibling blocks share frame slots: each declaration starts its variable
  // afresh (ints at their initialiser or 0, structs all-zero), whatever a
  // sibling left in the slot, and &x / &s.field write-backs land in the
  // variable that is in scope.
  Model m = Model::from_source(R"(
    typedef struct {int I; int J;} Pair;
    algorithm A(int p) {
      coord I=p;
      scheme {
        int k;
        for (k = 0; k < 2; k++) {
          { Pair s; 100%%[s.J]; Fill(&s); 100%%[s.J]; }
          { int x; 100%%[x]; Put(5, &x); 100%%[x]; }
          { Pair t; 100%%[t.I]; Put(6, &t.I); 100%%[t.I]; }
        }
      };
    })");
  m.register_native("Fill", [](std::vector<Value>& args) {
    auto& sv = std::get<StructVal>(args[0]);
    sv.fields[0] = 3;
    sv.fields[1] = 4;
  });
  m.register_native("Put",
                    [](std::vector<Value>& args) { args[1] = args[0]; });
  auto inst = m.instantiate({scalar(8)});
  RecordingSink sink;
  inst.run_scheme(sink);
  ASSERT_EQ(sink.events.size(), 12u);
  const std::vector<long long> expected{0, 4, 0, 5, 0, 6};
  for (std::size_t k = 0; k < sink.events.size(); ++k) {
    EXPECT_EQ(sink.events[k].src, (std::vector<long long>{expected[k % 6]}))
        << "activation " << k;
  }
}

TEST(Model, MissingSchemeThrowsOnReplay) {
  Model m = Model::from_source("algorithm A(int p) { coord I=p; }");
  auto inst = m.instantiate({scalar(1)});
  EXPECT_FALSE(inst.has_scheme());
  RecordingSink sink;
  EXPECT_THROW(inst.run_scheme(sink), PmdlError);
}

TEST(Model, SchemeReplayIsRepeatable) {
  // Scheme state (locals) must not leak between replays.
  auto inst = em3d_instance();
  RecordingSink a, b;
  inst.run_scheme(a);
  inst.run_scheme(b);
  EXPECT_EQ(a.events.size(), b.events.size());
}

// --- InstanceBuilder & factory models ------------------------------------------

TEST(InstanceBuilder, BuildsCompleteInstance) {
  auto inst = InstanceBuilder("manual")
                  .shape({2, 2})
                  .node_volume(0, 10.0)
                  .node_volume(3, 5.0)
                  .link(0, 1, 64.0)
                  .link(0, 1, 32.0)  // lower value does not overwrite
                  .parent(1)
                  .scheme([](ScheduleSink& sink) {
                    const long long c[2] = {0, 0};
                    sink.compute(c, 100.0);
                  })
                  .build();
  EXPECT_EQ(inst.size(), 4);
  EXPECT_DOUBLE_EQ(inst.node_volume(0), 10.0);
  EXPECT_DOUBLE_EQ(inst.node_volume(1), 0.0);
  EXPECT_DOUBLE_EQ(inst.link_bytes().at({0, 1}), 64.0);
  EXPECT_EQ(inst.parent_index(), 1);
  RecordingSink sink;
  inst.run_scheme(sink);
  EXPECT_EQ(sink.count(Event::kCompute), 1u);
}

TEST(InstanceBuilder, Validation) {
  EXPECT_THROW(InstanceBuilder("x").build(), hmpi::InvalidArgument);
  EXPECT_THROW(InstanceBuilder("x").node_volume(0, 1.0), hmpi::InvalidArgument);
  InstanceBuilder b("x");
  b.shape({2});
  EXPECT_THROW(b.link(0, 0, 8.0), hmpi::InvalidArgument);  // self link
  EXPECT_THROW(b.node_volume(5, 1.0), hmpi::InvalidArgument);
  EXPECT_THROW(b.parent(2), hmpi::InvalidArgument);
}

TEST(InstanceBuilder, RejectsNonFiniteVolumes) {
  // An infinite volume under a 0% activation makes the node's time NaN
  // (inf x 0), which prices every mapping at NaN or drops the node from
  // the makespan; the builder refuses it, as Cluster refuses non-finite
  // speeds.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  InstanceBuilder b("x");
  b.shape({2});
  for (const double bad : {inf, -inf, nan}) {
    EXPECT_THROW(b.node_volume(0, bad), hmpi::InvalidArgument) << bad;
    EXPECT_THROW(b.link(0, 1, bad), hmpi::InvalidArgument) << bad;
  }
  Model m = Model::from_factory("inf", 1, [=](std::span<const ParamValue> ps) {
    InstanceBuilder f("inf");
    f.shape({2});
    f.node_volume(0, std::get<long long>(ps[0]) == 0 ? 1.0 : inf);
    f.scheme([](ScheduleSink& sink) {
      const long long c[1] = {0};
      sink.compute(c, 0.0);
    });
    return f.build();
  });
  EXPECT_NO_THROW(m.instantiate({scalar(0)}));
  EXPECT_THROW(m.instantiate({scalar(1)}), hmpi::InvalidArgument);
}

TEST(Model, SummaryDescribesTheInstance) {
  auto inst = em3d_instance();
  const std::string text = inst.summary();
  EXPECT_NE(text.find("model Em3d"), std::string::npos);
  EXPECT_NE(text.find("shape (3)"), std::string::npos);
  EXPECT_NE(text.find("parent #0"), std::string::npos);
  EXPECT_NE(text.find("scheme present"), std::string::npos);
  EXPECT_NE(text.find("node #1 [1]: 3 units"), std::string::npos);
  EXPECT_NE(text.find("link #1 -> #0: 40 bytes"), std::string::npos);
  EXPECT_NE(text.find("totals: 9 units"), std::string::npos);
}

TEST(Model, SchemePercentagesMustBeFiniteAndNonNegative) {
  // A factory scheme reaches every sink through run_scheme, which rejects
  // a percentage the text path could never produce.
  for (const double percent :
       {std::numeric_limits<double>::quiet_NaN(), -50.0,
        std::numeric_limits<double>::infinity()}) {
    for (const bool transfer : {false, true}) {
      auto inst = InstanceBuilder("pct")
                      .shape({2})
                      .node_volume(1, 50.0)
                      .link(0, 1, 1e3)
                      .scheme([percent, transfer](ScheduleSink& s) {
                        const long long a[1] = {0}, b[1] = {1};
                        if (transfer) {
                          s.transfer(a, b, percent);
                        } else {
                          s.compute(b, percent);
                        }
                      })
                      .build();
      RecordingSink sink;
      EXPECT_THROW(inst.run_scheme(sink), hmpi::InvalidArgument)
          << percent << (transfer ? " transfer" : " compute");
      EXPECT_TRUE(sink.events.empty());
    }
  }
  auto zero = InstanceBuilder("pct")
                  .shape({1})
                  .scheme([](ScheduleSink& s) {
                    const long long a[1] = {0};
                    s.compute(a, 0.0);
                  })
                  .build();
  RecordingSink sink;
  zero.run_scheme(sink);
  EXPECT_EQ(sink.count(Event::kCompute), 1u);
}

TEST(Model, FactoryModelsProduceInstances) {
  Model m = Model::from_factory("fact", 1, [](std::span<const ParamValue> ps) {
    const long long p = std::get<long long>(ps[0]);
    InstanceBuilder b("fact");
    b.shape({p});
    for (int i = 0; i < p; ++i) b.node_volume(i, 1.0 + i);
    return b.build();
  });
  EXPECT_EQ(m.param_count(), 1u);
  auto inst = m.instantiate({scalar(3)});
  EXPECT_EQ(inst.size(), 3);
  EXPECT_DOUBLE_EQ(inst.node_volume(2), 3.0);
}

}  // namespace
}  // namespace hmpi::pmdl
