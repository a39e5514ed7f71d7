#include "pmdl/value.hpp"

#include <cmath>

namespace hmpi::pmdl {

double as_double_other(const Value& v) {
  if (const auto* d = std::get_if<double>(&v)) return *d;
  throw PmdlError("expected a numeric value, got " + value_kind_name(v));
}

long long as_int_other(const Value& v) {
  if (const auto* d = std::get_if<double>(&v)) {
    const double r = std::nearbyint(*d);
    // [-2^63, 2^63) is the long long range; NaN fails the test too.
    if (!(r >= -0x1p63 && r < 0x1p63)) {
      throw PmdlError("expected an integer value, got a double outside the int range");
    }
    if (std::abs(*d - r) > 1e-9) {
      throw PmdlError("expected an integer value, got non-integral double");
    }
    return static_cast<long long>(r);
  }
  throw PmdlError("expected an integer value, got " + value_kind_name(v));
}

bool truthy_other(const Value& v) {
  if (const auto* d = std::get_if<double>(&v)) return *d != 0.0;
  throw PmdlError("expected a boolean (numeric) value, got " + value_kind_name(v));
}

std::string value_kind_name(const Value& v) {
  struct Visitor {
    std::string operator()(long long) const { return "int"; }
    std::string operator()(double) const { return "double"; }
    std::string operator()(const ArrayRef& a) const {
      return "array(" + std::to_string(a.remaining_dims()) + "d)";
    }
    std::string operator()(const StructVal& s) const {
      return "struct " + (s.type ? s.type->name : std::string("?"));
    }
  };
  return std::visit(Visitor{}, v);
}

}  // namespace hmpi::pmdl
