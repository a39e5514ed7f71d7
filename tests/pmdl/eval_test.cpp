// White-box tests of PMDL expression evaluation (C arithmetic semantics)
// via tiny models whose node volumes exercise the expression in question.
#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <string>
#include <vector>

#include "pmdl/model.hpp"
#include "pmdl_test_util.hpp"
#include "support/error.hpp"

namespace hmpi::pmdl {
namespace {

/// Evaluates `expr` (over parameters a, b bound to the given values) as the
/// node volume of a one-processor model and returns the result.
double eval_with(const std::string& expr, long long a, long long b) {
  // Offset by a constant so that negative expression results survive the
  // node-volume non-negativity check.
  Model m = Model::from_source(
      "algorithm E(int a, int b) { coord I=1; node { 1: bench*((" + expr +
      ") + 100000); }; }");
  return m.instantiate({scalar(a), scalar(b)}).node_volume(0) - 100000.0;
}

/// The message of the PmdlError that `expr` (over a, b) throws as the node
/// condition of a one-processor model, or "" when it throws none.
std::string condition_error(const std::string& expr, long long a, long long b) {
  try {
    Model::from_source("algorithm E(int a, int b) { coord I=1;\n node { (" +
                       expr + ") != 0: bench*(1); }; }")
        .instantiate({scalar(a), scalar(b)});
  } catch (const PmdlError& e) {
    return e.what();
  }
  return "";
}

/// The message of the PmdlError that replaying `statements` throws in a
/// scheme whose local x starts at a, or "" when it throws none.
std::string scheme_error(const std::string& statements, long long a, long long b) {
  try {
    const Model m = Model::from_source(
        "algorithm E(int a, int b) { coord I=1;\n scheme { int x = a; " +
        statements + " }; }");
    testing::RecordingSink sink;
    m.instantiate({scalar(a), scalar(b)}).run_scheme(sink);
  } catch (const PmdlError& e) {
    return e.what();
  }
  return "";
}

/// Each overflow names itself and the position of its operator (line 2).
void expect_overflow(const std::string& message) {
  EXPECT_NE(message.find("pmdl:2:"), std::string::npos) << message;
  EXPECT_NE(message.find("integer overflow"), std::string::npos) << message;
}

TEST(Eval, AdditionOverflowThrows) {
  expect_overflow(condition_error("a + b", LLONG_MAX, 1));
  EXPECT_EQ(condition_error("a + b", LLONG_MAX, 0), "");
}

TEST(Eval, SubtractionOverflowThrows) {
  expect_overflow(condition_error("a - b", LLONG_MIN, 1));
  EXPECT_EQ(condition_error("a - b", LLONG_MIN, 0), "");
}

TEST(Eval, MultiplicationOverflowThrows) {
  expect_overflow(condition_error("a * a * a", 3000000, 0));
  EXPECT_EQ(condition_error("a * a * a", 2000000, 0), "");
}

TEST(Eval, NegationOverflowThrows) {
  expect_overflow(condition_error("-a", LLONG_MIN, 0));
  EXPECT_EQ(condition_error("-a", LLONG_MIN + 1, 0), "");
}

TEST(Eval, DivisionOverflowThrows) {
  expect_overflow(condition_error("1 + a / (0 - 1)", LLONG_MIN, 0));
  EXPECT_EQ(condition_error("1 + a / (0 - 1)", LLONG_MIN + 2, 0), "");
}

TEST(Eval, ModuloOverflowThrows) {
  expect_overflow(condition_error("1 + a % b", LLONG_MIN, -1));
  EXPECT_EQ(condition_error("1 + a % b", LLONG_MIN + 1, -1), "");
}

TEST(Eval, IncrementOverflowThrows) {
  expect_overflow(scheme_error("x++;", LLONG_MAX, 0));
  EXPECT_EQ(scheme_error("x++;", LLONG_MAX - 1, 0), "");
}

TEST(Eval, DecrementOverflowThrows) {
  expect_overflow(scheme_error("x--;", LLONG_MIN, 0));
  EXPECT_EQ(scheme_error("x--;", LLONG_MIN + 1, 0), "");
}

TEST(Eval, CompoundAssignmentOverflowThrows) {
  expect_overflow(scheme_error("x += b;", LLONG_MAX, 1));
  expect_overflow(scheme_error("x -= b;", LLONG_MIN, 1));
  EXPECT_EQ(scheme_error("x += b; x -= b;", LLONG_MAX - 1, 1), "");
}

TEST(Eval, WriteBackOfADoubleOutsideTheIntRangeThrows) {
  // A native may write a double into an int slot; one that no long long
  // holds (or NaN) fails instead of being cast.
  for (const double written : {1e30, -1e30, 0x1p63, std::nan("")}) {
    Model m = Model::from_source(R"(
      typedef struct {int I;} Box;
      algorithm E(int p) { coord I=p; scheme { Box s; Put(&s.I); }; })");
    m.register_native("Put", [written](std::vector<Value>& args) {
      args[0] = Value(written);
    });
    testing::RecordingSink sink;
    try {
      m.instantiate({scalar(1)}).run_scheme(sink);
      ADD_FAILURE() << "expected a PmdlError for " << written;
    } catch (const PmdlError& e) {
      EXPECT_NE(std::string(e.what()).find("outside the int range"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Eval, IntegerArithmetic) {
  EXPECT_DOUBLE_EQ(eval_with("a + b", 3, 4), 7.0);
  EXPECT_DOUBLE_EQ(eval_with("a - b", 3, 4), -1.0);
  EXPECT_DOUBLE_EQ(eval_with("a * b", 3, 4), 12.0);
}

TEST(Eval, IntegerDivisionTruncates) {
  // C semantics: 7 / 2 == 3 — the language is a C dialect, and the paper's
  // expressions like d[I]/k and 100/n rely on this.
  EXPECT_DOUBLE_EQ(eval_with("a / b", 7, 2), 3.0);
  EXPECT_DOUBLE_EQ(eval_with("a / b", 100, 9), 11.0);
}

TEST(Eval, Modulo) {
  EXPECT_DOUBLE_EQ(eval_with("a % b", 7, 3), 1.0);
  EXPECT_DOUBLE_EQ(eval_with("a % b", 9, 3), 0.0);
}

TEST(Eval, DivisionByZeroThrows) {
  EXPECT_THROW(eval_with("a / b", 1, 0), PmdlError);
  EXPECT_THROW(eval_with("a % b", 1, 0), PmdlError);
}

TEST(Eval, Comparisons) {
  EXPECT_DOUBLE_EQ(eval_with("a < b", 1, 2), 1.0);
  EXPECT_DOUBLE_EQ(eval_with("a > b", 1, 2), 0.0);
  EXPECT_DOUBLE_EQ(eval_with("a <= b", 2, 2), 1.0);
  EXPECT_DOUBLE_EQ(eval_with("a >= b", 1, 2), 0.0);
  EXPECT_DOUBLE_EQ(eval_with("a == b", 2, 2), 1.0);
  EXPECT_DOUBLE_EQ(eval_with("a != b", 2, 2), 0.0);
}

TEST(Eval, LogicalOperators) {
  EXPECT_DOUBLE_EQ(eval_with("a && b", 1, 0), 0.0);
  EXPECT_DOUBLE_EQ(eval_with("a && b", 2, 3), 1.0);
  EXPECT_DOUBLE_EQ(eval_with("a || b", 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(eval_with("a || b", 0, 5), 1.0);
  EXPECT_DOUBLE_EQ(eval_with("!a", 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(eval_with("!a", 7, 0), 0.0);
}

TEST(Eval, ShortCircuitPreventsDivisionByZero) {
  // b == 0, so a != 0 && 1/b would crash without short-circuiting.
  EXPECT_DOUBLE_EQ(eval_with("(a != 0) && (1 / b)", 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(eval_with("(a == 0) || (1 / b)", 0, 0), 1.0);
}

TEST(Eval, UnaryMinus) {
  EXPECT_DOUBLE_EQ(eval_with("-a + b", 3, 10), 7.0);
  EXPECT_DOUBLE_EQ(eval_with("-(a - b)", 3, 10), 7.0);
}

TEST(Eval, SizeofBuiltins) {
  EXPECT_DOUBLE_EQ(eval_with("sizeof(double)", 0, 0), 8.0);
  EXPECT_DOUBLE_EQ(eval_with("sizeof(int)", 0, 0), 4.0);
  EXPECT_DOUBLE_EQ(eval_with("sizeof(float)", 0, 0), 4.0);
}

TEST(Eval, PrecedenceMixedExpression) {
  // 2 + 3 * 4 - 10 / 5 = 2 + 12 - 2 = 12
  EXPECT_DOUBLE_EQ(eval_with("2 + a * 4 - b / 5", 3, 10), 12.0);
}

TEST(Eval, ArrayIndexing) {
  Model m = Model::from_source(
      "algorithm E(int p, int d[p]) { coord I=p; node { 1: bench*(d[I]); }; }");
  auto inst = m.instantiate({scalar(3), array({10, 20, 30})});
  EXPECT_DOUBLE_EQ(inst.node_volume(0), 10.0);
  EXPECT_DOUBLE_EQ(inst.node_volume(1), 20.0);
  EXPECT_DOUBLE_EQ(inst.node_volume(2), 30.0);
}

TEST(Eval, MultiDimArrayIndexing) {
  Model m = Model::from_source(
      "algorithm E(int p, int dep[p][p]) { coord I=p;"
      " node { 1: bench*(dep[I][1]); }; }");
  // dep = [[1,2],[3,4]] row-major.
  auto inst = m.instantiate({scalar(2), array({1, 2, 3, 4})});
  EXPECT_DOUBLE_EQ(inst.node_volume(0), 2.0);
  EXPECT_DOUBLE_EQ(inst.node_volume(1), 4.0);
}

TEST(Eval, ArrayIndexOutOfRangeThrows) {
  Model m = Model::from_source(
      "algorithm E(int p, int d[p]) { coord I=p; node { 1: bench*(d[p]); }; }");
  EXPECT_THROW(m.instantiate({scalar(2), array({1, 2})}), PmdlError);
}

TEST(Eval, UndeclaredIdentifierRejectedAtCompileTime) {
  // Semantic analysis catches this at from_source, before any instantiation.
  EXPECT_THROW(Model::from_source(
                   "algorithm E(int p) { coord I=p; node { 1: bench*(nosuch); }; }"),
               PmdlError);
}

TEST(Eval, TooManySubscriptsRejectedAtCompileTime) {
  EXPECT_THROW(
      Model::from_source("algorithm E(int p, int d[p]) { coord I=p;"
                         " node { 1: bench*(d[0][0]); }; }"),
      PmdlError);
}

TEST(Eval, SubscriptOnScalarRejectedAtCompileTime) {
  EXPECT_THROW(Model::from_source(
                   "algorithm E(int p) { coord I=p; node { 1: bench*(p[0]); }; }"),
               PmdlError);
}

}  // namespace
}  // namespace hmpi::pmdl
