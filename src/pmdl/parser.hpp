// Recursive-descent parser for the performance-model definition language.
#pragma once

#include <memory>
#include <string_view>

#include "pmdl/ast.hpp"

namespace hmpi::pmdl {

/// Parses a PMDL source text (optional typedefs followed by one `algorithm`
/// definition). Throws PmdlError with source positions on syntax errors.
std::shared_ptr<ast::Algorithm> parse(std::string_view source);

}  // namespace hmpi::pmdl
