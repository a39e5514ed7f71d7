#include "pmdl/eval.hpp"

#include <cmath>
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

// RAII scope guard.
class ScopeGuard {
 public:
  explicit ScopeGuard(Env& env) : env_(env) { env_.push_scope(); }
  ~ScopeGuard() { env_.pop_scope(); }
  ScopeGuard(const ScopeGuard&) = delete;
  ScopeGuard& operator=(const ScopeGuard&) = delete;

 private:
  Env& env_;
};

bool is_int(const Value& v) { return std::holds_alternative<long long>(v); }

/// The binding `ident` names, read in place.
Value& named_value(const Expr& ident, EvalCtx& ctx) {
  Value* v = ctx.env->lookup(ident.name);
  if (v == nullptr) {
    fail(ident.pos, "use of undeclared identifier '" + ident.name + "'");
  }
  return *v;
}

/// The int slot of `var.field`, inside the named struct variable.
long long* field_slot(const Expr& expr, EvalCtx& ctx) {
  if (expr.lhs->kind != ExprKind::kIdent) {
    fail(expr.pos, "member access must be of the form var.field");
  }
  auto* sv = std::get_if<StructVal>(&named_value(*expr.lhs, ctx));
  if (sv == nullptr) fail(expr.pos, "'" + expr.lhs->name + "' is not a struct");
  const int field = sv->type->field_index(expr.name);
  if (field < 0) {
    fail(expr.pos,
         "struct " + sv->type->name + " has no field '" + expr.name + "'");
  }
  return &sv->fields[static_cast<std::size_t>(field)];
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
  if (idx < 0 || idx >= extent) {
    fail(expr.pos, "array index " + std::to_string(idx) +
                       " out of range [0, " + std::to_string(extent) + ")");
  }
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
  const Expr& base = push_subscripts(expr, ctx);
  if (base.kind != ExprKind::kIdent) {
    fail(expr.pos, "subscripted value is not an array variable");
  }
  const Value& named = named_value(base, ctx);
  const auto* arr = std::get_if<ArrayRef>(&named);
  if (arr == nullptr) {
    fail(expr.pos, "subscripted value is not an array (got " +
                       value_kind_name(named) + ")");
  }
  std::size_t next = first;
  std::size_t offset = arr->offset;
  std::size_t dim = arr->dim_index;
  apply_subscripts(expr, ctx, *arr->data, next, offset, dim);
  ctx.subscripts.resize(first);
  if (dim == arr->data->dims.size()) return Value(arr->data->data[offset]);
  return Value(ArrayRef{arr->data, offset, dim});
}

/// Resolves an expression to the int slot it denotes (int variable or struct
/// field of a variable).
long long* eval_int_lvalue(const Expr& expr, EvalCtx& ctx) {
  switch (expr.kind) {
    case ExprKind::kIdent: {
      if (auto* i = std::get_if<long long>(&named_value(expr, ctx))) return i;
      fail(expr.pos, "'" + expr.name + "' is not an assignable int variable");
    }
    case ExprKind::kMember:
      return field_slot(expr, ctx);
    default:
      fail(expr.pos, "expression is not assignable");
  }
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

  const bool both_int = is_int(lv) && is_int(rv);
  switch (expr.op) {
    case Tok::kPlus:
      if (both_int) return Value(std::get<long long>(lv) + std::get<long long>(rv));
      return Value(as_double(lv) + as_double(rv));
    case Tok::kMinus:
      if (both_int) return Value(std::get<long long>(lv) - std::get<long long>(rv));
      return Value(as_double(lv) - as_double(rv));
    case Tok::kStar:
      if (both_int) return Value(std::get<long long>(lv) * std::get<long long>(rv));
      return Value(as_double(lv) * as_double(rv));
    case Tok::kSlash:
      if (both_int) {
        const long long d = std::get<long long>(rv);
        if (d == 0) fail(expr.pos, "integer division by zero");
        return Value(std::get<long long>(lv) / d);
      } else {
        const double d = as_double(rv);
        if (d == 0.0) fail(expr.pos, "division by zero");
        return Value(as_double(lv) / d);
      }
    case Tok::kPercent: {
      if (!both_int) fail(expr.pos, "operands of % must be integers");
      const long long d = std::get<long long>(rv);
      if (d == 0) fail(expr.pos, "modulo by zero");
      return Value(std::get<long long>(lv) % d);
    }
    default:
      fail(expr.pos, std::string("unsupported binary operator ") + tok_name(expr.op));
  }
}

Value eval_call(const Expr& expr, EvalCtx& ctx) {
  if (ctx.natives == nullptr) {
    fail(expr.pos, "no native functions are registered");
  }
  auto it = ctx.natives->find(expr.name);
  if (it == ctx.natives->end()) {
    fail(expr.pos, "call to unregistered function '" + expr.name + "'");
  }

  // Evaluate arguments; remember write-back targets for &x arguments.
  struct WriteBack {
    std::size_t arg_index;
    Value* value_slot;     // whole-variable reference (ident)
    long long* int_slot;   // int slot (member access)
  };
  std::vector<Value> args;
  std::vector<WriteBack> write_backs;
  args.reserve(expr.args.size());
  for (std::size_t i = 0; i < expr.args.size(); ++i) {
    const Expr& arg = *expr.args[i];
    if (arg.kind == ExprKind::kAddressOf) {
      const Expr& target = *arg.lhs;
      if (target.kind == ExprKind::kIdent) {
        Value* slot = &named_value(target, ctx);
        args.push_back(*slot);
        write_backs.push_back({i, slot, nullptr});
      } else {
        long long* slot = eval_int_lvalue(target, ctx);
        args.push_back(Value(*slot));
        write_backs.push_back({i, nullptr, slot});
      }
    } else {
      args.push_back(eval_expr(arg, ctx));
    }
  }

  it->second(args);

  for (const WriteBack& wb : write_backs) {
    if (wb.value_slot != nullptr) {
      *wb.value_slot = args[wb.arg_index];
    } else {
      *wb.int_slot = as_int(args[wb.arg_index]);
    }
  }
  return Value(0LL);  // calls are statements in practice; value unused
}

}  // namespace

Value eval_expr(const Expr& expr, EvalCtx& ctx) {
  switch (expr.kind) {
    case ExprKind::kIntLit:
      return Value(expr.int_value);

    case ExprKind::kIdent:
      return named_value(expr, ctx);

    case ExprKind::kBinary:
      return eval_binary(expr, ctx);

    case ExprKind::kUnary: {
      const Value v = eval_expr(*expr.lhs, ctx);
      if (expr.op == Tok::kMinus) {
        if (is_int(v)) return Value(-std::get<long long>(v));
        return Value(-as_double(v));
      }
      if (expr.op == Tok::kNot) return Value(static_cast<long long>(!truthy(v)));
      fail(expr.pos, "unsupported unary operator");
    }

    case ExprKind::kPostfix: {
      long long* slot = eval_int_lvalue(*expr.lhs, ctx);
      const long long old = *slot;
      *slot += expr.op == Tok::kPlusPlus ? 1 : -1;
      return Value(old);
    }

    case ExprKind::kAssign: {
      long long* slot = eval_int_lvalue(*expr.lhs, ctx);
      const long long rhs = as_int(eval_expr(*expr.rhs, ctx));
      switch (expr.op) {
        case Tok::kAssign: *slot = rhs; break;
        case Tok::kPlusAssign: *slot += rhs; break;
        case Tok::kMinusAssign: *slot -= rhs; break;
        default: fail(expr.pos, "unsupported assignment operator");
      }
      return Value(*slot);
    }

    case ExprKind::kIndex:
      return eval_index(expr, ctx);

    case ExprKind::kMember:
      return Value(*field_slot(expr, ctx));

    case ExprKind::kCall:
      return eval_call(expr, ctx);

    case ExprKind::kSizeof: {
      if (expr.name == "double") return Value(8LL);
      if (expr.name == "int" || expr.name == "float") return Value(4LL);
      if (ctx.structs != nullptr) {
        auto it = ctx.structs->find(expr.name);
        if (it != ctx.structs->end()) {
          return Value(static_cast<long long>(4 * it->second->fields.size()));
        }
      }
      fail(expr.pos, "sizeof of unknown type '" + expr.name + "'");
    }

    case ExprKind::kAddressOf:
      fail(expr.pos, "'&' is only valid on call arguments");
  }
  fail(expr.pos, "internal: unhandled expression kind");
}

namespace {

void exec_decl(const Stmt& stmt, EvalCtx& ctx) {
  for (const ast::DeclItem& item : stmt.decls) {
    if (stmt.decl_type == "int") {
      long long init = 0;
      if (item.init) init = as_int(eval_expr(*item.init, ctx));
      ctx.env->define(item.name, Value(init));
    } else {
      if (ctx.structs == nullptr) fail(stmt.pos, "no struct types declared");
      auto it = ctx.structs->find(stmt.decl_type);
      if (it == ctx.structs->end()) {
        fail(stmt.pos, "unknown type '" + stmt.decl_type + "'");
      }
      if (item.init) {
        fail(stmt.pos, "struct variables cannot have initialisers");
      }
      StructVal sv;
      sv.type = it->second;
      sv.fields.assign(it->second->fields.size(), 0);
      ctx.env->define(item.name, Value(std::move(sv)));
    }
  }
}

std::vector<long long> eval_coords(const std::vector<ast::ExprPtr>& exprs,
                                   EvalCtx& ctx, const ast::Pos& pos) {
  if (ctx.shape.empty()) fail(pos, "internal: no coordinate shape in context");
  if (exprs.size() != ctx.shape.size()) {
    fail(pos, "activation uses " + std::to_string(exprs.size()) +
                  " coordinates, the model declares " +
                  std::to_string(ctx.shape.size()));
  }
  std::vector<long long> coords;
  coords.reserve(exprs.size());
  for (std::size_t d = 0; d < exprs.size(); ++d) {
    const long long c = as_int(eval_expr(*exprs[d], ctx));
    if (c < 0 || c >= ctx.shape[d]) {
      fail(pos, "coordinate " + std::to_string(c) + " out of range [0, " +
                    std::to_string(ctx.shape[d]) + ") in dimension " +
                    std::to_string(d));
    }
    coords.push_back(c);
  }
  return coords;
}

void exec_loop(const Stmt& stmt, EvalCtx& ctx) {
  const bool parallel = stmt.kind == StmtKind::kPar;
  if (parallel && ctx.sink == nullptr) {
    fail(stmt.pos, "par statement outside a scheme evaluation");
  }
  if (!stmt.expr) {
    fail(stmt.pos, "loop requires a termination condition");
  }
  ScopeGuard scope(*ctx.env);
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

void exec_stmt(const Stmt& stmt, EvalCtx& ctx) {
  switch (stmt.kind) {
    case StmtKind::kBlock: {
      ScopeGuard scope(*ctx.env);
      for (const ast::StmtPtr& s : stmt.body) exec_stmt(*s, ctx);
      return;
    }
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
    case StmtKind::kComp: {
      if (ctx.sink == nullptr) fail(stmt.pos, "activation outside a scheme evaluation");
      const double percent = as_double(eval_expr(*stmt.expr, ctx));
      if (percent < 0.0) fail(stmt.pos, "negative activation percentage");
      const auto coords = eval_coords(stmt.src_coords, ctx, stmt.pos);
      ctx.sink->compute(coords, percent);
      return;
    }
    case StmtKind::kComm: {
      if (ctx.sink == nullptr) fail(stmt.pos, "activation outside a scheme evaluation");
      const double percent = as_double(eval_expr(*stmt.expr, ctx));
      if (percent < 0.0) fail(stmt.pos, "negative activation percentage");
      const auto src = eval_coords(stmt.src_coords, ctx, stmt.pos);
      const auto dst = eval_coords(stmt.dst_coords, ctx, stmt.pos);
      ctx.sink->transfer(src, dst, percent);
      return;
    }
  }
  fail(stmt.pos, "internal: unhandled statement kind");
}

}  // namespace hmpi::pmdl
