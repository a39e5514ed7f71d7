// Expression and statement evaluation for PMDL (internal to the module;
// exposed for white-box testing).
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pmdl/ast.hpp"
#include "pmdl/env.hpp"
#include "pmdl/model.hpp"
#include "pmdl/value.hpp"

namespace hmpi::pmdl {

/// Evaluation context threaded through the tree walk.
struct EvalCtx {
  Env* env = nullptr;
  const std::map<std::string, NativeFn>* natives = nullptr;
  const std::map<std::string, std::shared_ptr<const StructInfo>>* structs = nullptr;
  /// Scheme-only: activation receiver and coordinate extents for bounds checks.
  ScheduleSink* sink = nullptr;
  std::span<const long long> shape;
  /// Loop iterations run so far with this context, over all loops and
  /// nesting levels: one replay may run at most kMaxLoopIterations.
  long long loop_iterations = 0;
  /// Scratch stack of evaluated subscripts (a[i][j]... chains; nested
  /// chains push above their enclosing one).
  std::vector<long long> subscripts;
};

/// Upper bound on the loop iterations of one evaluation context (one scheme
/// replay): catches runaway schemes — a missing step, a non-terminating
/// condition, or nested loops whose product explodes — instead of hanging
/// the runtime.
inline constexpr long long kMaxLoopIterations = 1 << 24;

/// Evaluates an expression to a value (C arithmetic semantics; see value.hpp).
Value eval_expr(const ast::Expr& expr, EvalCtx& ctx);

/// Executes a statement (scheme bodies). Requires ctx.sink for kPar/kComm/kComp.
void exec_stmt(const ast::Stmt& stmt, EvalCtx& ctx);

}  // namespace hmpi::pmdl
