// Lexically scoped symbol environment for PMDL evaluation.
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "pmdl/value.hpp"

namespace hmpi::pmdl {

/// One flat stack of bindings, innermost last; a scope is the run of
/// bindings defined since its push_scope(). Lookup scans from the innermost
/// binding outward, so a shadowing definition wins and the outer one is
/// visible again once its scope is popped. The bindings live in a deque,
/// so a binding's address stays valid while later scopes grow and shrink
/// the stack — `&x` write-backs and lvalue pointers stay valid across
/// defines. Copyable (a ModelInstance keeps the parameter bindings as an
/// Env copy).
class Env {
 public:
  void push_scope() { scope_begin_.push_back(bindings_.size()); }

  void pop_scope() {
    if (scope_begin_.empty()) {
      throw PmdlError("internal: popping the global scope");
    }
    bindings_.resize(scope_begin_.back());
    scope_begin_.pop_back();
  }

  /// Defines `name` in the innermost scope; redefinition in the same scope
  /// is an error (shadowing an outer scope is allowed).
  void define(const std::string& name, Value value) {
    const std::size_t begin = scope_begin_.empty() ? 0 : scope_begin_.back();
    for (std::size_t k = begin; k < bindings_.size(); ++k) {
      if (bindings_[k].name == name) {
        throw PmdlError("redefinition of '" + name + "'");
      }
    }
    bindings_.push_back({name, std::move(value)});
  }

  /// Innermost binding of `name`, or nullptr.
  Value* lookup(const std::string& name) {
    for (auto it = bindings_.rbegin(); it != bindings_.rend(); ++it) {
      if (it->name == name) return &it->value;
    }
    return nullptr;
  }

  const Value* lookup(const std::string& name) const {
    return const_cast<Env*>(this)->lookup(name);
  }

 private:
  struct Binding {
    std::string name;
    Value value;
  };
  std::deque<Binding> bindings_;
  std::vector<std::size_t> scope_begin_;  // bindings_ index of each open scope
};

}  // namespace hmpi::pmdl
