// Text helpers of the golden-fixture tests: a fixture is text a test
// prints, compared byte for byte with a committed file, so doubles are
// printed exactly and a mismatch reports the first line that differs.
#pragma once

#include <cstdio>
#include <sstream>
#include <string>

namespace hmpi::golden {

/// `v` in hexfloat (printf's %a): exact for every double.
inline std::string hexfloat(double v) {
  char out[48];
  std::snprintf(out, sizeof out, "%a", v);
  return out;
}

/// Empty when the texts are equal, else the first line where they differ.
inline std::string first_difference(const std::string& expected,
                                    const std::string& actual) {
  if (expected == actual) return "";
  std::istringstream in_a(expected);
  std::istringstream in_b(actual);
  std::string line_a;
  std::string line_b;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(in_a, line_a));
    const bool more_b = static_cast<bool>(std::getline(in_b, line_b));
    if (!more_a && !more_b) return "texts differ only in trailing newlines";
    if (!more_a) line_a = "<end>";
    if (!more_b) line_b = "<end>";
    if (line_a != line_b) {
      return "line " + std::to_string(line) + ":\n  expected: " + line_a +
             "\n  actual:   " + line_b;
    }
  }
}

}  // namespace hmpi::golden
