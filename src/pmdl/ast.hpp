// Abstract syntax tree of the performance-model definition language.
//
// Nodes are enum-tagged structs rather than a class hierarchy: the language
// is small and the evaluator dispatches with a switch, keeping the whole
// front end easy to audit.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "pmdl/token.hpp"

namespace hmpi::pmdl::ast {

struct Pos {
  int line = 0;
  int column = 0;
};

enum class ExprKind {
  kIntLit,     // 42
  kIdent,      // name
  kBinary,     // lhs op rhs
  kUnary,      // op lhs          (-x, !x)
  kPostfix,    // lhs op          (x++, x--)
  kAssign,     // lhs op rhs      (=, +=, -=)
  kIndex,      // lhs [ rhs ]
  kMember,     // lhs . name
  kCall,       // name ( args )
  kSizeof,     // sizeof ( type-name )
  kAddressOf,  // & lhs           (only valid as a call argument)
};

struct Expr {
  ExprKind kind{};
  Pos pos;
  long long int_value = 0;             // kIntLit; kSizeof (set by validate())
  std::string name;                    // kIdent / kMember / kCall / kSizeof
  Tok op{};                            // kBinary / kUnary / kPostfix / kAssign
  std::unique_ptr<Expr> lhs;
  std::unique_ptr<Expr> rhs;
  std::vector<std::unique_ptr<Expr>> args;  // kCall
  /// Set by validate(): kIdent the frame slot of its binding, kMember the
  /// field index, kCall the index of its name in Algorithm::natives.
  int slot = -1;
};

using ExprPtr = std::unique_ptr<Expr>;

enum class StmtKind {
  kBlock,  // { ... }
  kDecl,   // int a = 0, b;  |  Processor Root;
  kExpr,   // expression;
  kIf,     // if (cond) stmt [else stmt]
  kFor,    // for (init; cond; step) stmt      -- sequential composition
  kPar,    // par (init; cond; step) stmt      -- parallel composition
  kComm,   // expr %% [src] -> [dst];
  kComp,   // expr %% [coords];
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct DeclItem {
  std::string name;
  ExprPtr init;   // may be null
  int slot = -1;  // frame slot (set by validate())
};

struct Stmt {
  StmtKind kind{};
  Pos pos;

  std::vector<StmtPtr> body;  // kBlock

  std::string decl_type;         // kDecl: "int" or a struct type name
  std::vector<DeclItem> decls;   // kDecl
  int decl_struct = -1;          // kDecl: index in Algorithm::structs, -1 for int

  ExprPtr expr;  // kExpr; kIf/kFor/kPar condition; kComm/kComp percent

  StmtPtr init_stmt;  // kFor/kPar (kDecl or kExpr; may be null)
  ExprPtr step;       // kFor/kPar (may be null)
  StmtPtr loop_body;  // kFor/kPar

  StmtPtr then_branch;  // kIf
  StmtPtr else_branch;  // kIf (may be null)

  std::vector<ExprPtr> src_coords;  // kComm source, kComp coordinates
  std::vector<ExprPtr> dst_coords;  // kComm destination
};

/// `typedef struct {int I; int J;} Processor;`
struct StructDef {
  std::string name;
  std::vector<std::string> fields;  // int fields only
  Pos pos;
};

/// One formal parameter: `int p` or `int dep[p][p]`.
struct Param {
  std::string name;
  std::vector<ExprPtr> dims;  // empty for scalars
  Pos pos;
  int slot = -1;  // frame slot (set by validate())
};

/// One coordinate variable: `I = p`.
struct CoordVar {
  std::string name;
  ExprPtr extent;
  Pos pos;
  int slot = -1;  // frame slot (set by validate())
};

/// `cond : bench * ( volume ) ;`
struct NodeClause {
  ExprPtr cond;
  ExprPtr volume;
  Pos pos;
};

/// `cond : length * ( bytes ) [src] -> [dst] ;`
struct LinkClause {
  ExprPtr cond;
  ExprPtr bytes;
  std::vector<ExprPtr> src_coords;
  std::vector<ExprPtr> dst_coords;
  Pos pos;
};

/// A parsed `algorithm` definition (plus preceding typedefs).
struct Algorithm {
  std::string name;
  Pos pos;
  std::vector<StructDef> structs;
  std::vector<Param> params;
  std::vector<CoordVar> coords;
  std::vector<NodeClause> node_clauses;
  std::vector<CoordVar> link_iters;  // `link (K=m, L=m)` iterator variables
  std::vector<LinkClause> link_clauses;
  std::vector<ExprPtr> parent_coords;  // empty -> defaults to all-zero
  StmtPtr scheme;                      // kBlock; may be null

  // Set by validate(): the frame one evaluation reads and writes holds
  // frame_size values (parameters first), and `natives` names the called
  // host functions in first-call order.
  int frame_size = 0;
  std::vector<std::string> natives;
};

}  // namespace hmpi::pmdl::ast
