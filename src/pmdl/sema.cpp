#include "pmdl/sema.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace hmpi::pmdl {

namespace {

using namespace ast;

/// Static type of a name or expression.
struct Type {
  enum Kind { kInt, kArray, kStruct } kind = kInt;
  int array_rank = 0;     // kArray: remaining dimensions
  int struct_index = -1;  // kStruct: index in Algorithm::structs
};

/// A name in scope: its type and its frame slot.
struct Binding {
  Type type;
  int slot = -1;
};

[[noreturn]] void fail(const Pos& pos, const std::string& message) {
  throw PmdlError(message, pos.line, pos.column);
}

class Checker {
 public:
  explicit Checker(Algorithm& algo) : algo_(algo) {
    for (std::size_t i = 0; i < algo.structs.size(); ++i) {
      const StructDef& def = algo.structs[i];
      if (!structs_.emplace(def.name, static_cast<int>(i)).second) {
        fail(def.pos, "duplicate struct type '" + def.name + "'");
      }
      std::set<std::string> fields;
      for (const std::string& f : def.fields) {
        if (!fields.insert(f).second) {
          fail(def.pos, "duplicate field '" + f + "' in struct " + def.name);
        }
      }
    }
  }

  void run() {
    check_params();
    // Coordinate variables are visible in node/link clauses only; the
    // scheme addresses processors through expressions over its own locals
    // and the parameters (matching the evaluator's scoping).
    push_scope();
    check_coords();
    check_node();
    check_link();
    pop_scope();
    check_parent();
    if (algo_.scheme) {
      push_scope();
      check_stmt(*algo_.scheme);
      pop_scope();
    }
    algo_.frame_size = frame_size_;
  }

 private:
  // --- scopes ---------------------------------------------------------------

  // A binding's slot is its depth in the stack of open scopes, so sibling
  // scopes reuse slots and the frame is as deep as the deepest nesting.

  void push_scope() { scopes_.emplace_back(); }
  void pop_scope() {
    next_slot_ -= static_cast<int>(scopes_.back().size());
    scopes_.pop_back();
  }

  /// Binds `name` in the innermost scope and returns its slot.
  int define(const std::string& name, Type type, const Pos& pos) {
    const int slot = next_slot_;
    if (!scopes_.back().emplace(name, Binding{type, slot}).second) {
      fail(pos, "redefinition of '" + name + "'");
    }
    frame_size_ = std::max(frame_size_, ++next_slot_);
    return slot;
  }

  const Binding* lookup(const std::string& name) const {
    for (auto scope = scopes_.rbegin(); scope != scopes_.rend(); ++scope) {
      auto it = scope->find(name);
      if (it != scope->end()) return &it->second;
    }
    return nullptr;
  }

  /// The binding `ident` names; records its slot in the AST.
  const Binding& resolve(Expr& ident) const {
    const Binding* binding = lookup(ident.name);
    if (binding == nullptr) {
      fail(ident.pos, "use of undeclared identifier '" + ident.name + "'");
    }
    ident.slot = binding->slot;
    return *binding;
  }

  // --- sections --------------------------------------------------------------

  void check_params() {
    push_scope();  // global scope: parameters
    for (Param& param : algo_.params) {
      // Dimensions may reference earlier parameters only.
      for (const ExprPtr& dim : param.dims) {
        expect_scalar(check_expr(*dim), dim->pos, "array dimension");
      }
      Type type;
      if (param.dims.empty()) {
        type.kind = Type::kInt;
      } else {
        type.kind = Type::kArray;
        type.array_rank = static_cast<int>(param.dims.size());
      }
      param.slot = define(param.name, type, param.pos);
    }
  }

  void check_coords() {
    for (CoordVar& cv : algo_.coords) {
      expect_scalar(check_expr(*cv.extent), cv.pos, "coordinate extent");
      cv.slot = define(cv.name, Type{}, cv.pos);
    }
  }

  void check_node() {
    for (const NodeClause& clause : algo_.node_clauses) {
      expect_scalar(check_expr(*clause.cond), clause.pos, "node condition");
      expect_scalar(check_expr(*clause.volume), clause.pos, "node volume");
    }
  }

  void check_link() {
    push_scope();  // link iterator variables
    for (CoordVar& iv : algo_.link_iters) {
      expect_scalar(check_expr(*iv.extent), iv.pos, "link iterator extent");
      iv.slot = define(iv.name, Type{}, iv.pos);
    }
    const std::size_t rank = algo_.coords.size();
    for (const LinkClause& clause : algo_.link_clauses) {
      expect_scalar(check_expr(*clause.cond), clause.pos, "link condition");
      expect_scalar(check_expr(*clause.bytes), clause.pos, "link volume");
      if (clause.src_coords.size() != rank || clause.dst_coords.size() != rank) {
        fail(clause.pos, "link endpoints must use " + std::to_string(rank) +
                             " coordinate(s)");
      }
      for (const ExprPtr& c : clause.src_coords) {
        expect_scalar(check_expr(*c), c->pos, "link coordinate");
      }
      for (const ExprPtr& c : clause.dst_coords) {
        expect_scalar(check_expr(*c), c->pos, "link coordinate");
      }
    }
    pop_scope();
  }

  void check_parent() {
    if (algo_.parent_coords.empty()) return;
    if (algo_.parent_coords.size() != algo_.coords.size()) {
      fail(algo_.pos, "parent declaration must use " +
                          std::to_string(algo_.coords.size()) +
                          " coordinate(s)");
    }
    for (const ExprPtr& c : algo_.parent_coords) {
      expect_scalar(check_expr(*c), c->pos, "parent coordinate");
    }
  }

  // --- statements -------------------------------------------------------------

  /// A declaration is not a statement in C, so it cannot be the body of a
  /// loop or an if branch: its scope would be the enclosing one, where a
  /// loop would define it again on every iteration.
  void check_body(Stmt& body, const char* owner) {
    if (body.kind == StmtKind::kDecl) {
      fail(body.pos, std::string("a declaration cannot be the body of ") +
                         owner + "; enclose it in braces");
    }
    check_stmt(body);
  }

  void check_stmt(Stmt& stmt) {
    switch (stmt.kind) {
      case StmtKind::kBlock:
        push_scope();
        for (const StmtPtr& s : stmt.body) check_stmt(*s);
        pop_scope();
        return;

      case StmtKind::kDecl: {
        Type type;
        if (stmt.decl_type != "int") {
          auto it = structs_.find(stmt.decl_type);
          if (it == structs_.end()) {
            fail(stmt.pos, "unknown type '" + stmt.decl_type + "'");
          }
          type.kind = Type::kStruct;
          type.struct_index = it->second;
          stmt.decl_struct = it->second;
        }
        for (DeclItem& item : stmt.decls) {
          if (item.init) {
            if (type.kind == Type::kStruct) {
              fail(stmt.pos, "struct variables cannot have initialisers");
            }
            expect_scalar(check_expr(*item.init), item.init->pos, "initialiser");
          }
          item.slot = define(item.name, type, stmt.pos);
        }
        return;
      }

      case StmtKind::kExpr:
        check_expr(*stmt.expr);
        return;

      case StmtKind::kIf:
        expect_scalar(check_expr(*stmt.expr), stmt.expr->pos, "if condition");
        check_body(*stmt.then_branch, "an if");
        if (stmt.else_branch) check_body(*stmt.else_branch, "an else");
        return;

      case StmtKind::kFor:
      case StmtKind::kPar: {
        push_scope();
        if (stmt.init_stmt) check_stmt(*stmt.init_stmt);
        if (!stmt.expr) {
          fail(stmt.pos, "loop requires a termination condition");
        }
        expect_scalar(check_expr(*stmt.expr), stmt.expr->pos, "loop condition");
        if (stmt.step) check_expr(*stmt.step);
        check_body(*stmt.loop_body, "a loop");
        pop_scope();
        return;
      }

      case StmtKind::kComp:
      case StmtKind::kComm: {
        expect_scalar(check_expr(*stmt.expr), stmt.expr->pos,
                      "activation percentage");
        const std::size_t rank = algo_.coords.size();
        auto check_coords = [&](std::vector<ExprPtr>& coords) {
          if (coords.size() != rank) {
            fail(stmt.pos, "activation must use " + std::to_string(rank) +
                               " coordinate(s), found " +
                               std::to_string(coords.size()));
          }
          for (const ExprPtr& c : coords) {
            expect_scalar(check_expr(*c), c->pos, "activation coordinate");
          }
        };
        check_coords(stmt.src_coords);
        if (stmt.kind == StmtKind::kComm) check_coords(stmt.dst_coords);
        return;
      }
    }
    fail(stmt.pos, "internal: unhandled statement kind");
  }

  // --- expressions --------------------------------------------------------------

  static void expect_scalar(const Type& type, const Pos& pos, const char* what) {
    if (type.kind != Type::kInt) {
      fail(pos, std::string(what) + " must be a scalar expression");
    }
  }

  Type check_lvalue(Expr& expr) {
    if (expr.kind == ExprKind::kIdent) {
      const Type& type = resolve(expr).type;
      if (type.kind != Type::kInt) {
        fail(expr.pos, "'" + expr.name + "' is not an assignable int variable");
      }
      return type;
    }
    if (expr.kind == ExprKind::kMember) {
      if (expr.lhs->kind != ExprKind::kIdent) {
        fail(expr.pos, "assignable member access must be of the form var.field");
      }
      return check_expr(expr);  // validates the base type and the field
    }
    fail(expr.pos, "expression is not assignable");
  }

  Type check_expr(Expr& expr) {
    switch (expr.kind) {
      case ExprKind::kIntLit:
        return Type{};

      case ExprKind::kSizeof:
        expr.int_value = sizeof_type(expr);
        return Type{};

      case ExprKind::kIdent:
        return resolve(expr).type;

      case ExprKind::kBinary: {
        expect_scalar(check_expr(*expr.lhs), expr.lhs->pos, "operand");
        expect_scalar(check_expr(*expr.rhs), expr.rhs->pos, "operand");
        return Type{};
      }

      case ExprKind::kUnary:
        expect_scalar(check_expr(*expr.lhs), expr.lhs->pos, "operand");
        return Type{};

      case ExprKind::kPostfix:
        check_lvalue(*expr.lhs);
        return Type{};

      case ExprKind::kAssign: {
        check_lvalue(*expr.lhs);
        expect_scalar(check_expr(*expr.rhs), expr.rhs->pos, "assigned value");
        return Type{};
      }

      case ExprKind::kIndex: {
        const Type base = check_expr(*expr.lhs);
        if (base.kind != Type::kArray) {
          fail(expr.pos, "subscripted value is not an array");
        }
        expect_scalar(check_expr(*expr.rhs), expr.rhs->pos, "array index");
        Type result = base;
        result.array_rank -= 1;
        if (result.array_rank == 0) return Type{};
        return result;
      }

      case ExprKind::kMember: {
        const Type base = check_expr(*expr.lhs);
        if (base.kind != Type::kStruct) {
          fail(expr.pos, "member access on a non-struct value");
        }
        const StructDef& def =
            algo_.structs[static_cast<std::size_t>(base.struct_index)];
        for (std::size_t i = 0; i < def.fields.size(); ++i) {
          if (def.fields[i] == expr.name) {
            expr.slot = static_cast<int>(i);
            return Type{};
          }
        }
        fail(expr.pos,
             "struct " + def.name + " has no field '" + expr.name + "'");
      }

      case ExprKind::kCall: {
        for (const ExprPtr& arg : expr.args) {
          if (arg->kind == ExprKind::kAddressOf) {
            // `&x` requires an lvalue-ish target: variable or member.
            Expr& target = *arg->lhs;
            if (target.kind == ExprKind::kIdent) {
              resolve(target);
            } else {
              check_lvalue(target);
            }
          } else {
            check_expr(*arg);
          }
        }
        auto [it, added] = natives_.emplace(
            expr.name, static_cast<int>(algo_.natives.size()));
        if (added) algo_.natives.push_back(expr.name);
        expr.slot = it->second;
        return Type{};
      }

      case ExprKind::kAddressOf:
        fail(expr.pos, "'&' is only valid on call arguments");
    }
    fail(expr.pos, "internal: unhandled expression kind");
  }

  /// Bytes of `sizeof(type)`: double 8, int and float 4, a struct 4 per field.
  long long sizeof_type(const Expr& expr) const {
    if (expr.name == "double") return 8;
    if (expr.name == "int" || expr.name == "float") return 4;
    auto it = structs_.find(expr.name);
    if (it == structs_.end()) {
      fail(expr.pos, "sizeof of unknown type '" + expr.name + "'");
    }
    return 4 * static_cast<long long>(
                   algo_.structs[static_cast<std::size_t>(it->second)].fields.size());
  }

  Algorithm& algo_;
  std::map<std::string, int> structs_;  // name -> index in algo_.structs
  std::map<std::string, int> natives_;  // name -> index in algo_.natives
  std::vector<std::map<std::string, Binding>> scopes_;
  int next_slot_ = 0;
  int frame_size_ = 0;
};

}  // namespace

void validate(ast::Algorithm& algorithm) {
  Checker checker(algorithm);
  checker.run();
}

}  // namespace hmpi::pmdl
