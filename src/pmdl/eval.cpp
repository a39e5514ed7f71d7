#include "pmdl/eval.hpp"

#include <climits>
#include <string>
#include <vector>

namespace hmpi::pmdl {

namespace {

using ast::Expr;
using ast::ExprKind;
using ast::Stmt;
using ast::StmtKind;

[[noreturn]] void fail(const ast::Pos& pos, const std::string& message) {
  throw PmdlError(message, pos.line, pos.column);
}

bool is_int(const Value& v) { return std::holds_alternative<long long>(v); }

void check_overflow(bool overflow, const Expr& expr) {
  if (overflow) fail(expr.pos, "integer overflow");
}

/// The binding `ident` names, read in place.
Value& named_value(const Expr& ident, EvalCtx& ctx) {
  return ctx.frame[static_cast<std::size_t>(ident.slot)];
}

// The failure paths build their messages out of line, which keeps the hot
// helpers small enough to inline.

[[noreturn]] void fail_range(const ast::Pos& pos, const char* what,
                             long long value, long long extent,
                             int dim = -1) {
  fail(pos, std::string(what) + " " + std::to_string(value) +
                " out of range [0, " + std::to_string(extent) + ")" +
                (dim >= 0 ? " in dimension " + std::to_string(dim) : ""));
}

[[noreturn]] void fail_holds(const Expr& expr, const std::string& what,
                             const Value& held) {
  fail(expr.pos, what + " (got " + value_kind_name(held) + ")");
}

[[noreturn]] void fail_no_field(const Expr& expr, const Value& var) {
  fail(expr.pos, "'" + expr.lhs->name + "' has no field '" + expr.name +
                     "' (it holds " + value_kind_name(var) + ")");
}

/// The int slot of `var.field`, inside the named struct variable.
long long* field_slot(const Expr& expr, EvalCtx& ctx) {
  Value& var = named_value(*expr.lhs, ctx);
  auto* sv = std::get_if<StructVal>(&var);
  const auto field = static_cast<std::size_t>(expr.slot);
  // Only a native's write-back can leave another value in a struct variable.
  if (sv == nullptr || field >= sv->fields.size()) fail_no_field(expr, var);
  return &sv->fields[field];
}

/// Pushes the subscripts of the chain a[i][j]... onto ctx.subscripts in
/// source order and returns the chain's base expression.
const Expr& push_subscripts(const Expr& expr, EvalCtx& ctx) {
  const Expr& base = expr.lhs->kind == ExprKind::kIndex
                         ? push_subscripts(*expr.lhs, ctx)
                         : *expr.lhs;
  const long long idx = as_int(eval_expr(*expr.rhs, ctx));
  ctx.subscripts.push_back(idx);
  return base;
}

/// Applies the chain's subscripts (ctx.subscripts from `next` on, one per
/// kIndex level, innermost first) to the view at (`offset`, `dim`) of
/// `data`, bounds-checking each level.
void apply_subscripts(const Expr& expr, EvalCtx& ctx, const ArrayData& data,
                      std::size_t& next, std::size_t& offset,
                      std::size_t& dim) {
  if (expr.lhs->kind == ExprKind::kIndex) {
    apply_subscripts(*expr.lhs, ctx, data, next, offset, dim);
  }
  if (dim >= data.dims.size()) fail(expr.pos, "too many subscripts for array");
  const long long idx = ctx.subscripts[next++];
  const long long extent = data.dims[dim];
  if (idx < 0 || idx >= extent) fail_range(expr.pos, "array index", idx, extent);
  // Stride of this dimension = product of later extents.
  std::size_t stride = 1;
  for (std::size_t d = dim + 1; d < data.dims.size(); ++d) {
    stride *= static_cast<std::size_t>(data.dims[d]);
  }
  offset += static_cast<std::size_t>(idx) * stride;
  ++dim;
}

/// a[i][j]...: the subscripts are evaluated first (in source order), then
/// the named array variable is indexed in place. Only a partially indexed
/// result copies the view.
Value eval_index(const Expr& expr, EvalCtx& ctx) {
  const std::size_t first = ctx.subscripts.size();
  const Value& named = named_value(push_subscripts(expr, ctx), ctx);
  const auto* arr = std::get_if<ArrayRef>(&named);
  if (arr == nullptr) fail_holds(expr, "subscripted value is not an array", named);
  std::size_t next = first;
  std::size_t offset = arr->offset;
  std::size_t dim = arr->dim_index;
  apply_subscripts(expr, ctx, *arr->data, next, offset, dim);
  ctx.subscripts.resize(first);
  if (dim == arr->data->dims.size()) return Value(arr->data->data[offset]);
  return Value(ArrayRef{arr->data, offset, dim});
}

/// Resolves an int variable or a struct field of a variable to its int slot.
long long* eval_int_lvalue(const Expr& expr, EvalCtx& ctx) {
  if (expr.kind == ExprKind::kMember) return field_slot(expr, ctx);
  Value& var = named_value(expr, ctx);
  if (auto* i = std::get_if<long long>(&var)) return i;
  fail_holds(expr, "'" + expr.name + "' is not an assignable int variable", var);
}

Value eval_binary(const Expr& expr, EvalCtx& ctx) {
  // Short-circuit logical operators first.
  if (expr.op == Tok::kAndAnd) {
    if (!truthy(eval_expr(*expr.lhs, ctx))) return Value(0LL);
    return Value(static_cast<long long>(truthy(eval_expr(*expr.rhs, ctx))));
  }
  if (expr.op == Tok::kOrOr) {
    if (truthy(eval_expr(*expr.lhs, ctx))) return Value(1LL);
    return Value(static_cast<long long>(truthy(eval_expr(*expr.rhs, ctx))));
  }

  const Value lv = eval_expr(*expr.lhs, ctx);
  const Value rv = eval_expr(*expr.rhs, ctx);

  switch (expr.op) {
    case Tok::kEq: return Value(static_cast<long long>(as_double(lv) == as_double(rv)));
    case Tok::kNe: return Value(static_cast<long long>(as_double(lv) != as_double(rv)));
    case Tok::kLt: return Value(static_cast<long long>(as_double(lv) < as_double(rv)));
    case Tok::kGt: return Value(static_cast<long long>(as_double(lv) > as_double(rv)));
    case Tok::kLe: return Value(static_cast<long long>(as_double(lv) <= as_double(rv)));
    case Tok::kGe: return Value(static_cast<long long>(as_double(lv) >= as_double(rv)));
    default: break;
  }

  if (is_int(lv) && is_int(rv)) {
    const long long a = std::get<long long>(lv);
    const long long b = std::get<long long>(rv);
    long long r = 0;
    switch (expr.op) {
      case Tok::kPlus:
        check_overflow(__builtin_add_overflow(a, b, &r), expr);
        return Value(r);
      case Tok::kMinus:
        check_overflow(__builtin_sub_overflow(a, b, &r), expr);
        return Value(r);
      case Tok::kStar:
        check_overflow(__builtin_mul_overflow(a, b, &r), expr);
        return Value(r);
      case Tok::kSlash:
      case Tok::kPercent: {
        const bool divide = expr.op == Tok::kSlash;
        if (b == 0) fail(expr.pos, divide ? "integer division by zero" : "modulo by zero");
        // LLONG_MIN / -1 does not fit, and x86 traps on LLONG_MIN % -1 too.
        check_overflow(a == LLONG_MIN && b == -1, expr);
        return Value(divide ? a / b : a % b);
      }
      default: break;
    }
  }
  switch (expr.op) {
    case Tok::kPlus: return Value(as_double(lv) + as_double(rv));
    case Tok::kMinus: return Value(as_double(lv) - as_double(rv));
    case Tok::kStar: return Value(as_double(lv) * as_double(rv));
    case Tok::kSlash: {
      const double d = as_double(rv);
      if (d == 0.0) fail(expr.pos, "division by zero");
      return Value(as_double(lv) / d);
    }
    case Tok::kPercent:
      fail(expr.pos, "operands of % must be integers");
    default:
      fail(expr.pos, std::string("unsupported binary operator ") + tok_name(expr.op));
  }
}

Value eval_call(const Expr& expr, EvalCtx& ctx) {
  const NativeFn& fn = ctx.natives[static_cast<std::size_t>(expr.slot)];
  if (!fn) fail(expr.pos, "call to unregistered function '" + expr.name + "'");

  // Evaluate the arguments into this call depth's vector, assigning over
  // the previous call's values so that a struct argument reuses its storage.
  // An argument may hold a nested call, which can grow ctx.call_args, so
  // each assignment indexes it after its right side is evaluated.
  const std::size_t depth = ctx.call_depth++;
  if (ctx.call_args.size() <= depth) ctx.call_args.resize(depth + 1);
  ctx.call_args[depth].resize(expr.args.size());
  for (std::size_t i = 0; i < expr.args.size(); ++i) {
    const Expr& arg = *expr.args[i];
    if (arg.kind != ExprKind::kAddressOf) {
      ctx.call_args[depth][i] = eval_expr(arg, ctx);
    } else if (arg.lhs->kind == ExprKind::kIdent) {
      ctx.call_args[depth][i] = named_value(*arg.lhs, ctx);
    } else {
      ctx.call_args[depth][i] = *eval_int_lvalue(*arg.lhs, ctx);
    }
  }
  --ctx.call_depth;

  std::vector<Value>& args = ctx.call_args[depth];
  fn(args);

  // Write the &x arguments back, in argument order.
  for (std::size_t i = 0; i < expr.args.size(); ++i) {
    const Expr& arg = *expr.args[i];
    if (arg.kind != ExprKind::kAddressOf) continue;
    if (arg.lhs->kind == ExprKind::kIdent) {
      named_value(*arg.lhs, ctx) = args[i];
    } else {
      *eval_int_lvalue(*arg.lhs, ctx) = as_int(args[i]);
    }
  }
  return Value(0LL);  // calls are statements in practice; value unused
}

}  // namespace

Value eval_expr(const Expr& expr, EvalCtx& ctx) {
  switch (expr.kind) {
    case ExprKind::kIntLit:
    case ExprKind::kSizeof:  // validate() stored the size
      return Value(expr.int_value);

    case ExprKind::kIdent:
      return named_value(expr, ctx);

    case ExprKind::kBinary:
      return eval_binary(expr, ctx);

    case ExprKind::kUnary: {
      const Value v = eval_expr(*expr.lhs, ctx);
      if (expr.op == Tok::kMinus) {
        if (!is_int(v)) return Value(-as_double(v));
        const long long i = std::get<long long>(v);
        check_overflow(i == LLONG_MIN, expr);
        return Value(-i);
      }
      if (expr.op == Tok::kNot) return Value(static_cast<long long>(!truthy(v)));
      fail(expr.pos, "unsupported unary operator");
    }

    case ExprKind::kPostfix: {
      long long* slot = eval_int_lvalue(*expr.lhs, ctx);
      const long long old = *slot;
      long long next = 0;
      check_overflow(
          __builtin_add_overflow(old, expr.op == Tok::kPlusPlus ? 1 : -1, &next),
          expr);
      *slot = next;
      return Value(old);
    }

    case ExprKind::kAssign: {
      // The right side first: a native call in it may rewrite the struct
      // variable that the left side's slot points into.
      const long long rhs = as_int(eval_expr(*expr.rhs, ctx));
      long long* slot = eval_int_lvalue(*expr.lhs, ctx);
      long long r = rhs;
      bool overflow = false;
      switch (expr.op) {
        case Tok::kAssign: break;
        case Tok::kPlusAssign: overflow = __builtin_add_overflow(*slot, rhs, &r); break;
        case Tok::kMinusAssign: overflow = __builtin_sub_overflow(*slot, rhs, &r); break;
        default: fail(expr.pos, "unsupported assignment operator");
      }
      check_overflow(overflow, expr);
      *slot = r;
      return Value(r);
    }

    case ExprKind::kIndex:
      return eval_index(expr, ctx);

    case ExprKind::kMember:
      return Value(*field_slot(expr, ctx));

    case ExprKind::kCall:
      return eval_call(expr, ctx);

    case ExprKind::kAddressOf:
      fail(expr.pos, "'&' is only valid on call arguments");
  }
  fail(expr.pos, "internal: unhandled expression kind");
}

namespace {

void exec_decl(const Stmt& stmt, EvalCtx& ctx) {
  for (const ast::DeclItem& item : stmt.decls) {
    Value value;
    if (stmt.decl_struct < 0) {
      value = Value(item.init ? as_int(eval_expr(*item.init, ctx)) : 0LL);
    } else {
      const auto& type = ctx.structs[static_cast<std::size_t>(stmt.decl_struct)];
      value = Value(StructVal{type, std::vector<long long>(type->fields.size(), 0)});
    }
    ctx.frame[static_cast<std::size_t>(item.slot)] = std::move(value);
  }
}

void exec_activation(const Stmt& stmt, EvalCtx& ctx) {
  const double percent = as_double(eval_expr(*stmt.expr, ctx));
  if (percent < 0.0) fail(stmt.pos, "negative activation percentage");
  const std::size_t rank = ctx.shape.size();
  ctx.coords.resize(2 * rank);
  const std::span<const long long> src(ctx.coords.data(), rank);
  eval_coords(stmt.src_coords, "coordinate", stmt.pos, ctx, ctx.coords.data());
  if (stmt.kind == StmtKind::kComp) {
    ctx.sink->compute(src, percent);
    return;
  }
  eval_coords(stmt.dst_coords, "coordinate", stmt.pos, ctx,
              ctx.coords.data() + rank);
  ctx.sink->transfer(src, {ctx.coords.data() + rank, rank}, percent);
}

void exec_loop(const Stmt& stmt, EvalCtx& ctx) {
  const bool parallel = stmt.kind == StmtKind::kPar;
  if (stmt.init_stmt) exec_stmt(*stmt.init_stmt, ctx);

  if (parallel) ctx.sink->par_begin();
  while (truthy(eval_expr(*stmt.expr, ctx))) {
    if (++ctx.loop_iterations > kMaxLoopIterations) {
      fail(stmt.pos, "loop exceeded the iteration limit (runaway scheme?)");
    }
    if (parallel) ctx.sink->par_iter_begin();
    exec_stmt(*stmt.loop_body, ctx);
    if (stmt.step) eval_expr(*stmt.step, ctx);
  }
  if (parallel) ctx.sink->par_end();
}

}  // namespace

void eval_coords(const std::vector<ast::ExprPtr>& exprs, const char* what,
                 const ast::Pos& pos, EvalCtx& ctx, long long* out) {
  for (std::size_t d = 0; d < exprs.size(); ++d) {
    const long long c = as_int(eval_expr(*exprs[d], ctx));
    if (c < 0 || c >= ctx.shape[d]) {
      fail_range(pos, what, c, ctx.shape[d], static_cast<int>(d));
    }
    out[d] = c;
  }
}

void exec_stmt(const Stmt& stmt, EvalCtx& ctx) {
  switch (stmt.kind) {
    case StmtKind::kBlock:
      for (const ast::StmtPtr& s : stmt.body) exec_stmt(*s, ctx);
      return;
    case StmtKind::kDecl:
      exec_decl(stmt, ctx);
      return;
    case StmtKind::kExpr:
      eval_expr(*stmt.expr, ctx);
      return;
    case StmtKind::kIf:
      if (truthy(eval_expr(*stmt.expr, ctx))) {
        exec_stmt(*stmt.then_branch, ctx);
      } else if (stmt.else_branch) {
        exec_stmt(*stmt.else_branch, ctx);
      }
      return;
    case StmtKind::kFor:
    case StmtKind::kPar:
      exec_loop(stmt, ctx);
      return;
    case StmtKind::kComp:
    case StmtKind::kComm:
      exec_activation(stmt, ctx);
      return;
  }
  fail(stmt.pos, "internal: unhandled statement kind");
}

}  // namespace hmpi::pmdl
