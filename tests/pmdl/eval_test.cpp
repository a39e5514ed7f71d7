// White-box tests of PMDL expression evaluation (C arithmetic semantics)
// via tiny models whose node volumes exercise the expression in question.
#include <gtest/gtest.h>

#include <string>

#include "pmdl/env.hpp"
#include "pmdl/model.hpp"
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

TEST(Env, SameScopeRedefinitionFailsAndShadowingDoesNot) {
  Env env;
  env.define("x", Value(1LL));
  const auto expect_redefinition = [&](long long v) {
    try {
      env.define("x", Value(v));
      FAIL() << "expected a redefinition error";
    } catch (const PmdlError& e) {
      EXPECT_NE(std::string(e.what()).find("redefinition"), std::string::npos)
          << e.what();
    }
  };
  expect_redefinition(2);
  env.push_scope();
  env.define("y", Value(7LL));
  env.define("x", Value(3LL));  // shadows the outer x
  expect_redefinition(4);
  EXPECT_EQ(std::get<long long>(*env.lookup("x")), 3);
  env.pop_scope();
  EXPECT_EQ(std::get<long long>(*env.lookup("x")), 1);
  EXPECT_EQ(env.lookup("y"), nullptr);
  EXPECT_THROW(env.pop_scope(), PmdlError);  // the global scope stays
}

TEST(Env, BindingsKeepTheirAddressWhileTheStackGrows) {
  Env env;
  env.define("s", Value(5LL));
  Value* s = env.lookup("s");
  env.push_scope();
  for (int k = 0; k < 1000; ++k) env.define("v" + std::to_string(k), Value(0LL));
  EXPECT_EQ(env.lookup("s"), s);
  *s = Value(9LL);
  env.pop_scope();
  EXPECT_EQ(env.lookup("s"), s);
  EXPECT_EQ(std::get<long long>(*s), 9);
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
