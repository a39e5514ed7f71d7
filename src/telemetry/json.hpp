// Minimal JSON support for the telemetry layer.
//
// The telemetry exporters (metrics dump, Chrome trace, prediction ledger,
// BENCH_*.json) emit JSON by hand; this header supplies the two encoding
// helpers they share (json_quote / json_number) plus a small recursive
// descent parser used by tests and tools/telemetry_check to validate that
// the emitted files really are well-formed and carry the promised shape.
// It is deliberately not a general-purpose JSON library: no comments, no
// trailing commas, documents limited to a sane nesting depth.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hmpi::telemetry {

/// Encodes `s` as a JSON string literal, quotes included.
std::string json_quote(std::string_view s);

/// Encodes a finite double as a JSON number: integral values print without a
/// decimal point, everything else with enough digits to round-trip.
/// Non-finite values (which JSON cannot represent) encode as `null`.
std::string json_number(double v);

/// One parsed JSON value (a small DOM). Object member order is preserved.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const noexcept { return type == Type::kNull; }
  bool is_number() const noexcept { return type == Type::kNumber; }
  bool is_string() const noexcept { return type == Type::kString; }
  bool is_array() const noexcept { return type == Type::kArray; }
  bool is_object() const noexcept { return type == Type::kObject; }

  /// First member with key `key`, or nullptr (objects only).
  const JsonValue* find(std::string_view key) const;
};

/// Parses a complete JSON document (surrounding whitespace allowed; trailing
/// garbage rejected). Returns nullopt and fills `*error` (when non-null) with
/// a position-annotated message on malformed input, which includes a number
/// too large for a finite double.
std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error = nullptr);

}  // namespace hmpi::telemetry
