#include "support/env.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "support/error.hpp"

namespace hmpi::support::env {

namespace {

// Even entries switch a flag on, odd ones off.
constexpr const char* kFlagNames[] = {"1",   "0",  "true", "false",
                                      "yes", "no", "on",   "off"};

/// The value of `name`; nullptr when it is unset or empty.
const char* value_of(const char* name) {
  const char* value = std::getenv(name);
  return value == nullptr || *value == '\0' ? nullptr : value;
}

[[noreturn]] void reject(const char* name, const char* value,
                         const std::string& accepted) {
  throw InvalidArgument(std::string(name) + "='" + value +
                        "' is not accepted (accepted: " + accepted + ")");
}

/// `value` parsed as a T by std::from_chars; false unless all of it parses.
template <typename T>
bool parse_whole(const char* value, T& out) {
  const char* end = value + std::strlen(value);
  const auto [stop, error] = std::from_chars(value, end, out);
  return error == std::errc{} && stop == end;
}

}  // namespace

bool flag(const char* name, bool fallback) {
  const int index = choice(name, kFlagNames, -1);
  return index < 0 ? fallback : index % 2 == 0;
}

int choice(const char* name, std::span<const char* const> names, int fallback) {
  const char* value = value_of(name);
  if (value == nullptr) return fallback;
  std::string lower(value);
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  std::string accepted;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (lower == names[i]) return static_cast<int>(i);
    if (i > 0) accepted += '|';
    accepted += names[i];
  }
  reject(name, value, accepted + ", any case");
}

long long integer(const char* name, long long min, long long max,
                  long long fallback) {
  const char* value = value_of(name);
  if (value == nullptr) return fallback;
  long long parsed = 0;
  if (!parse_whole(value, parsed) || parsed < min || parsed > max) {
    reject(name, value, "a whole decimal int >= " + std::to_string(min) +
                            " and <= " + std::to_string(max));
  }
  return parsed;
}

double number(const char* name, bool positive, double fallback) {
  const char* value = value_of(name);
  if (value == nullptr) return fallback;
  double parsed = 0.0;
  if (!parse_whole(value, parsed) || !std::isfinite(parsed) || parsed < 0.0 ||
      (positive && parsed == 0.0)) {
    reject(name, value, positive ? "a finite decimal number > 0"
                                 : "a finite decimal number >= 0");
  }
  return parsed;
}

std::string text(const char* name, const std::string& fallback) {
  const char* value = value_of(name);
  return value == nullptr ? fallback : value;
}

}  // namespace hmpi::support::env
