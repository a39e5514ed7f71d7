#include "pmdl/sema.hpp"

#include <gtest/gtest.h>

#include "pmdl/parser.hpp"
#include "pmdl_test_util.hpp"
#include "support/error.hpp"

namespace hmpi::pmdl {
namespace {

void expect_valid(const char* source) {
  EXPECT_NO_THROW(validate(*parse(source))) << source;
}

void expect_invalid(const char* source, const char* what) {
  try {
    validate(*parse(source));
    FAIL() << "expected PmdlError (" << what << ") for: " << source;
  } catch (const PmdlError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(Sema, AcceptsThePaperModels) {
  expect_valid(pmdl::testing::em3d_source());
  expect_valid(pmdl::testing::parallel_axb_source());
}

TEST(Sema, DuplicateParameterRejected) {
  expect_invalid("algorithm A(int p, int p) { coord I=p; }", "redefinition");
}

TEST(Sema, ArrayDimensionMustReferenceEarlierParams) {
  expect_invalid("algorithm A(int d[q], int q) { coord I=q; }", "undeclared");
  expect_valid("algorithm A(int q, int d[q]) { coord I=q; }");
}

TEST(Sema, CoordShadowingParamRejected) {
  // Coord variables live in a nested scope but must not collide with each
  // other.
  expect_invalid("algorithm A(int p) { coord I=p, I=p; }", "redefinition");
}

TEST(Sema, UnknownIdentifierInNodeRejected) {
  expect_invalid("algorithm A(int p) { coord I=p; node { I>=0: bench*(x); }; }",
                 "undeclared");
}

TEST(Sema, CoordNotVisibleInScheme) {
  // The scheme addresses processors via locals/params, not coord variables.
  expect_invalid("algorithm A(int p) { coord I=p; scheme { 100%%[I]; }; }",
                 "undeclared");
}

TEST(Sema, LinkIteratorVisibleOnlyInLink) {
  expect_valid(R"(algorithm A(int p, int d[p][p]) {
    coord I=p;
    link (L=p) { I!=L: length*(d[I][L]) [L]->[I]; };
  })");
  expect_invalid(R"(algorithm A(int p) {
    coord I=p;
    link (L=p) { I!=L: length*(1) [L]->[I]; };
    node { L>=0: bench*(1); };
  })",
                 "undeclared");
}

TEST(Sema, LinkEndpointArityChecked) {
  expect_invalid(R"(algorithm A(int m) {
    coord I=m, J=m;
    link { 1: length*(8) [I]->[J]; };
  })",
                 "coordinate");
}

TEST(Sema, ParentArityChecked) {
  expect_invalid("algorithm A(int m) { coord I=m, J=m; parent[0]; }",
                 "coordinate");
  expect_valid("algorithm A(int m) { coord I=m, J=m; parent[0, 0]; }");
}

TEST(Sema, ActivationArityChecked) {
  expect_invalid(R"(algorithm A(int m) {
    coord I=m, J=m;
    scheme { 100%%[0]; };
  })",
                 "coordinate");
}

TEST(Sema, LoopWithoutConditionRejected) {
  expect_invalid(R"(algorithm A(int p) {
    coord I=p;
    scheme { int i; par (i = 0; ; i++) 100%%[i]; };
  })",
                 "condition");
}

TEST(Sema, AssignToArrayRejected) {
  expect_invalid(R"(algorithm A(int p, int d[p]) {
    coord I=p;
    scheme { d = 3; };
  })",
                 "assignable");
}

TEST(Sema, MemberOnNonStructRejected) {
  expect_invalid(R"(algorithm A(int p) {
    coord I=p;
    scheme { int x; x.I = 0; };
  })",
                 "non-struct");
}

TEST(Sema, UnknownStructFieldRejected) {
  expect_invalid(R"(
    typedef struct {int I; int J;} Processor;
    algorithm A(int p) {
      coord I=p;
      scheme { Processor P; P.K = 0; };
    })",
                 "no field");
}

TEST(Sema, UnknownDeclTypeRejected) {
  // An undeclared type name is not recognised as a declaration starter, so
  // this is rejected by the parser already (still a PmdlError with position).
  EXPECT_THROW(parse(R"(algorithm A(int p) {
    coord I=p;
    scheme { Widget w; };
  })"),
               PmdlError);
}

TEST(Sema, StructInitialiserRejected) {
  expect_invalid(R"(
    typedef struct {int I;} S;
    algorithm A(int p) { coord I=p; scheme { S s = 3; }; })",
                 "initialiser");
}

TEST(Sema, DuplicateStructFieldRejected) {
  expect_invalid(
      "typedef struct {int I; int I;} S; algorithm A(int p) { coord I=p; }",
      "duplicate field");
}

TEST(Sema, SchemeLocalsScopeToTheirBlock) {
  expect_invalid(R"(algorithm A(int p) {
    coord I=p;
    scheme {
      if (p > 0) { int x; x = 1; }
      x = 2;
    };
  })",
                 "undeclared");
}

TEST(Sema, DeclarationAsLoopOrIfBodyRejected) {
  // C has no declaration statement: as a body it would be defined again on
  // every iteration.
  const char* bodies[] = {
      "for (k = 0; k < 2; k++) int x = k;",
      "par (k = 0; k < 2; k++) int x = k;",
      "if (k > 0) int x = k;",
      "if (k > 0) k++; else int x = k;",
  };
  for (const char* body : bodies) {
    const std::string source =
        std::string("algorithm A(int p) { coord I=p; scheme { int k = 1;\n") +
        body + " }; }";
    try {
      validate(*parse(source));
      ADD_FAILURE() << "expected a PmdlError for: " << body;
    } catch (const PmdlError& e) {
      EXPECT_NE(std::string(e.what()).find("a declaration cannot be the body"),
                std::string::npos)
          << e.what();
      EXPECT_EQ(e.line(), 2) << e.what();
    }
  }
  expect_valid(
      "algorithm A(int p) { coord I=p; scheme { int k;"
      " for (k = 0; k < 2; k++) { int x = k; } if (k > 0) { int y; } }; }");
}

TEST(Sema, AddressOfUndeclaredRejected) {
  expect_invalid(R"(algorithm A(int p) {
    coord I=p;
    scheme { F(&nothing); };
  })",
                 "undeclared");
}

TEST(Sema, SizeofUnknownTypeRejected) {
  expect_invalid(
      "algorithm A(int p) { coord I=p; node { 1: bench*(sizeof(Widget)); }; }",
      "sizeof");
}

TEST(Sema, ErrorCarriesSourcePosition) {
  try {
    validate(*parse("algorithm A(int p) {\n  coord I=p;\n  node { 1: bench*(zz); };\n}"));
    FAIL();
  } catch (const PmdlError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

}  // namespace
}  // namespace hmpi::pmdl
