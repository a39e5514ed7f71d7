#include "telemetry/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace hmpi::telemetry {

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  // Integral values (the common case for counters and counts) print exactly.
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

/// Recursive-descent parser over a string_view with a depth guard.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    JsonValue value;
    if (!parse_value(value, 0)) {
      if (error != nullptr) *error = error_;
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after the document");
      if (error != nullptr) *error = error_;
      return std::nullopt;
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool fail(const std::string& message) {
    if (error_.empty()) {
      error_ = "json: offset " + std::to_string(pos_) + ": " + message;
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"':
        out.type = JsonValue::Type::kString;
        return parse_string(out.string);
      case 't':
        if (!literal("true")) return fail("invalid literal");
        out.type = JsonValue::Type::kBool;
        out.boolean = true;
        return true;
      case 'f':
        if (!literal("false")) return fail("invalid literal");
        out.type = JsonValue::Type::kBool;
        out.boolean = false;
        return true;
      case 'n':
        if (!literal("null")) return fail("invalid literal");
        out.type = JsonValue::Type::kNull;
        return true;
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    out.type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected object key");
      }
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':' after object key");
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(JsonValue& out, int depth) {
    out.type = JsonValue::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.array.push_back(std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("invalid \\u escape digit");
          }
          // UTF-8 encode the code point (surrogate pairs are passed through
          // as two 3-byte sequences; good enough for a validator).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return fail("invalid escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (consume('-')) {}
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      return fail("invalid number");
    }
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    if (consume('.')) {
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return fail("digit required after decimal point");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return fail("digit required in exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    out.type = JsonValue::Type::kNumber;
    out.number = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(out.number)) {
      pos_ = start;
      return fail("number out of range");
    }
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text, std::string* error) {
  return Parser(text).parse(error);
}

}  // namespace hmpi::telemetry
