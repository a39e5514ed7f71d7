// Expression and statement evaluation for PMDL (internal to the module;
// exposed for white-box testing).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "pmdl/ast.hpp"
#include "pmdl/model.hpp"
#include "pmdl/value.hpp"

namespace hmpi::pmdl {

/// Evaluation context threaded through the tree walk. The names were
/// resolved by validate(), so nothing here is looked up by name: an
/// identifier reads frame[slot] and a call runs natives[slot].
struct EvalCtx {
  /// One value per slot of the algorithm (ast::Algorithm::frame_size).
  std::span<Value> frame;
  /// Host functions in ast::Algorithm::natives order; empty when unregistered.
  std::span<const NativeFn> natives;
  /// Struct types in ast::Algorithm::structs order.
  std::span<const std::shared_ptr<const StructInfo>> structs;
  /// Scheme-only: activation receiver and coordinate extents for bounds checks.
  ScheduleSink* sink = nullptr;
  std::span<const long long> shape;
  /// Loop iterations run so far with this context, over all loops and
  /// nesting levels: one replay may run at most kMaxLoopIterations.
  long long loop_iterations = 0;
  /// Scratch stack of evaluated subscripts (a[i][j]... chains; nested
  /// chains push above their enclosing one).
  std::vector<long long> subscripts;
  /// The current activation's coordinates: source, then destination.
  std::vector<long long> coords;
  /// Argument vectors of native calls, one per call nesting depth.
  std::vector<std::vector<Value>> call_args;
  std::size_t call_depth = 0;
};

/// Upper bound on the loop iterations of one evaluation context (one scheme
/// replay): catches runaway schemes — a missing step, a non-terminating
/// condition, or nested loops whose product explodes — instead of hanging
/// the runtime. instantiate() holds an instance's abstract processors, and
/// the (processor, link iterator) tuples it evaluates, to the same bound.
inline constexpr long long kMaxLoopIterations = 1 << 24;

/// Evaluates an expression to a value (C arithmetic semantics; see value.hpp).
Value eval_expr(const ast::Expr& expr, EvalCtx& ctx);

/// Executes a statement of a scheme; requires ctx.sink and ctx.shape.
void exec_stmt(const ast::Stmt& stmt, EvalCtx& ctx);

/// Evaluates `exprs` as integer coordinates into `out`, each checked
/// against ctx.shape. An out-of-range one fails at `pos`, naming `what`,
/// the value, the range and the dimension.
void eval_coords(const std::vector<ast::ExprPtr>& exprs, const char* what,
                 const ast::Pos& pos, EvalCtx& ctx, long long* out);

}  // namespace hmpi::pmdl
