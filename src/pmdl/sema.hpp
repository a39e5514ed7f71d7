// Static semantic analysis of a parsed PMDL algorithm.
//
// The paper's toolchain compiles model definitions ahead of time, so errors
// like an unknown identifier or a mis-dimensioned activation should surface
// at compile time with a source position — not on first instantiation.
// validate() walks the whole definition with a typed symbol table:
//   * parameter names are unique; array dimensions reference earlier
//     parameters only;
//   * coord/link-iterator names do not collide with parameters;
//   * every expression type-checks (indexing stays within an array's rank,
//     member access targets a struct with that field, arithmetic operates
//     on scalars, assignment targets int lvalues);
//   * activations use exactly coord-rank coordinates; link clauses and the
//     parent declaration match the coordinate rank;
//   * par/for loops carry a termination condition;
//   * a declaration is never the direct body of a loop or an if branch.
// Function calls are checked structurally (argument expressions; `&x` on
// lvalues); their names bind to natives at instantiation time.
//
// The same walk compiles the names away: it records in the AST each
// binding's frame slot, each `s.field`'s field index, each call's native
// index, each struct declaration's type and each sizeof's value, so the
// evaluator never looks a name up.
#pragma once

#include "pmdl/ast.hpp"

namespace hmpi::pmdl {

/// Throws PmdlError (with source position) on the first violation;
/// otherwise records the resolved names in `algorithm`.
void validate(ast::Algorithm& algorithm);

}  // namespace hmpi::pmdl
