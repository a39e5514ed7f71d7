// Runtime values of the performance-model definition language.
//
// Arithmetic follows C semantics (the language is a C dialect): integer
// literals and int parameters are integers, int/int division truncates, `%`
// requires integers, and any double operand promotes the result to double.
#pragma once

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "support/error.hpp"

namespace hmpi::pmdl {

/// Immutable N-dimensional integer array (model parameters).
struct ArrayData {
  std::vector<long long> dims;
  std::vector<long long> data;  // row-major

  long long element_count() const {
    long long n = 1;
    for (long long d : dims) n *= d;
    return n;
  }
};

/// A (possibly partially indexed) view into an ArrayData.
struct ArrayRef {
  std::shared_ptr<const ArrayData> data;
  std::size_t offset = 0;     // flat offset of the viewed sub-array
  std::size_t dim_index = 0;  // how many leading dimensions are consumed

  std::size_t remaining_dims() const { return data->dims.size() - dim_index; }
};

/// Field layout of a struct type declared via typedef.
struct StructInfo {
  std::string name;
  std::vector<std::string> fields;
};

/// A struct variable's storage (int fields only, value semantics).
struct StructVal {
  std::shared_ptr<const StructInfo> type;
  std::vector<long long> fields;
};

/// Any PMDL runtime value.
using Value = std::variant<long long, double, ArrayRef, StructVal>;

/// Numeric coercions (throw PmdlError when the value is not numeric). The
/// int case, which is almost every value, is decided inline.
double as_double_other(const Value& v);
long long as_int_other(const Value& v);
bool truthy_other(const Value& v);

inline double as_double(const Value& v) {
  const auto* i = std::get_if<long long>(&v);
  return i != nullptr ? static_cast<double>(*i) : as_double_other(v);
}
inline long long as_int(const Value& v) {
  const auto* i = std::get_if<long long>(&v);
  return i != nullptr ? *i : as_int_other(v);
}
inline bool truthy(const Value& v) {
  const auto* i = std::get_if<long long>(&v);
  return i != nullptr ? *i != 0 : truthy_other(v);
}

/// Short value description for diagnostics ("int", "double", "array", ...).
std::string value_kind_name(const Value& v);

}  // namespace hmpi::pmdl
