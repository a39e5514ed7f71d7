#include "pmdl/printer.hpp"

#include <sstream>

#include "support/error.hpp"

namespace hmpi::pmdl {

namespace {

using namespace ast;

const char* op_text(Tok op) {
  switch (op) {
    case Tok::kAssign: return "=";
    case Tok::kPlus: return "+";
    case Tok::kMinus: return "-";
    case Tok::kStar: return "*";
    case Tok::kSlash: return "/";
    case Tok::kPercent: return "%";
    case Tok::kAndAnd: return "&&";
    case Tok::kOrOr: return "||";
    case Tok::kNot: return "!";
    case Tok::kEq: return "==";
    case Tok::kNe: return "!=";
    case Tok::kLt: return "<";
    case Tok::kGt: return ">";
    case Tok::kLe: return "<=";
    case Tok::kGe: return ">=";
    case Tok::kPlusPlus: return "++";
    case Tok::kMinusMinus: return "--";
    case Tok::kPlusAssign: return "+=";
    case Tok::kMinusAssign: return "-=";
    default: throw PmdlError("printer: unexpected operator token");
  }
}

class Printer {
 public:
  std::string render(const Algorithm& algo) {
    for (const StructDef& def : algo.structs) {
      out_ << "typedef struct {";
      for (const std::string& field : def.fields) out_ << "int " << field << "; ";
      out_ << "} " << def.name << ";\n\n";
    }

    out_ << "algorithm " << algo.name << "(";
    for (std::size_t i = 0; i < algo.params.size(); ++i) {
      if (i > 0) out_ << ", ";
      out_ << "int " << algo.params[i].name;
      for (const ExprPtr& dim : algo.params[i].dims) {
        out_ << "[" << expr(*dim) << "]";
      }
    }
    out_ << ") {\n";

    out_ << "  coord ";
    for (std::size_t i = 0; i < algo.coords.size(); ++i) {
      if (i > 0) out_ << ", ";
      out_ << algo.coords[i].name << "=" << expr(*algo.coords[i].extent);
    }
    out_ << ";\n";

    if (!algo.node_clauses.empty()) {
      out_ << "  node {\n";
      for (const NodeClause& clause : algo.node_clauses) {
        out_ << "    " << expr(*clause.cond) << ": bench*(" << expr(*clause.volume)
             << ");\n";
      }
      out_ << "  };\n";
    }

    if (!algo.link_clauses.empty()) {
      out_ << "  link";
      if (!algo.link_iters.empty()) {
        out_ << " (";
        for (std::size_t i = 0; i < algo.link_iters.size(); ++i) {
          if (i > 0) out_ << ", ";
          out_ << algo.link_iters[i].name << "=" << expr(*algo.link_iters[i].extent);
        }
        out_ << ")";
      }
      out_ << " {\n";
      for (const LinkClause& clause : algo.link_clauses) {
        out_ << "    " << expr(*clause.cond) << ": length*(" << expr(*clause.bytes)
             << ") " << coords(clause.src_coords) << " -> "
             << coords(clause.dst_coords) << ";\n";
      }
      out_ << "  };\n";
    }

    if (!algo.parent_coords.empty()) {
      out_ << "  parent" << coords(algo.parent_coords) << ";\n";
    }

    if (algo.scheme) {
      out_ << "  scheme ";
      stmt(*algo.scheme, 1);
      out_ << ";\n";
    }

    out_ << "};\n";
    return out_.str();
  }

 private:
  std::string coords(const std::vector<ExprPtr>& list) {
    std::string s = "[";
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (i > 0) s += ", ";
      s += expr(*list[i]);
    }
    return s + "]";
  }

  /// Fully parenthesised expression rendering (round-trip safe without
  /// tracking precedence).
  std::string expr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit:
        return std::to_string(e.int_value);
      case ExprKind::kIdent:
        return e.name;
      case ExprKind::kBinary:
        return std::string("(").append(expr(*e.lhs)) + " " + op_text(e.op) +
               " " + expr(*e.rhs) + ")";
      case ExprKind::kUnary:
        return std::string("(") + op_text(e.op) + expr(*e.lhs) + ")";
      case ExprKind::kPostfix:
        return expr(*e.lhs) + op_text(e.op);
      case ExprKind::kAssign:
        return expr(*e.lhs) + " " + op_text(e.op) + " " + expr(*e.rhs);
      case ExprKind::kIndex:
        return expr(*e.lhs) + "[" + expr(*e.rhs) + "]";
      case ExprKind::kMember:
        return expr(*e.lhs) + "." + e.name;
      case ExprKind::kCall: {
        std::string s = e.name + "(";
        for (std::size_t i = 0; i < e.args.size(); ++i) {
          if (i > 0) s += ", ";
          s += expr(*e.args[i]);
        }
        return s + ")";
      }
      case ExprKind::kSizeof:
        return "sizeof(" + e.name + ")";
      case ExprKind::kAddressOf:
        return std::string("&").append(expr(*e.lhs));
    }
    throw PmdlError("printer: unhandled expression kind");
  }

  void indent(int depth) {
    for (int i = 0; i < depth; ++i) out_ << "  ";
  }

  void stmt(const Stmt& s, int depth) {
    switch (s.kind) {
      case StmtKind::kBlock:
        out_ << "{\n";
        for (const StmtPtr& child : s.body) {
          indent(depth + 1);
          stmt(*child, depth + 1);
          out_ << "\n";
        }
        indent(depth);
        out_ << "}";
        return;
      case StmtKind::kDecl: {
        out_ << s.decl_type << " ";
        for (std::size_t i = 0; i < s.decls.size(); ++i) {
          if (i > 0) out_ << ", ";
          out_ << s.decls[i].name;
          if (s.decls[i].init) out_ << " = " << expr(*s.decls[i].init);
        }
        out_ << ";";
        return;
      }
      case StmtKind::kExpr:
        out_ << expr(*s.expr) << ";";
        return;
      case StmtKind::kIf:
        out_ << "if (" << expr(*s.expr) << ") ";
        stmt(*s.then_branch, depth);
        if (s.else_branch) {
          out_ << " else ";
          stmt(*s.else_branch, depth);
        }
        return;
      case StmtKind::kFor:
      case StmtKind::kPar:
        out_ << (s.kind == StmtKind::kFor ? "for (" : "par (");
        if (s.init_stmt) {
          // The init is a kDecl or kExpr statement; re-render without the
          // line break it would normally get.
          std::ostringstream saved;
          saved.swap(out_);
          stmt(*s.init_stmt, depth);
          std::string init_text = out_.str();
          out_.swap(saved);
          if (!init_text.empty() && init_text.back() == ';') init_text.pop_back();
          out_ << init_text;
        }
        out_ << "; ";
        if (s.expr) out_ << expr(*s.expr);
        out_ << "; ";
        if (s.step) out_ << expr(*s.step);
        out_ << ") ";
        stmt(*s.loop_body, depth);
        return;
      case StmtKind::kComp:
        out_ << "(" << expr(*s.expr) << ") %% " << coords(s.src_coords) << ";";
        return;
      case StmtKind::kComm:
        out_ << "(" << expr(*s.expr) << ") %% " << coords(s.src_coords) << " -> "
             << coords(s.dst_coords) << ";";
        return;
    }
    throw PmdlError("printer: unhandled statement kind");
  }

  std::ostringstream out_;
};

}  // namespace

std::string to_source(const ast::Algorithm& algorithm) {
  Printer printer;
  return printer.render(algorithm);
}

}  // namespace hmpi::pmdl
