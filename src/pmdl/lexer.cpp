#include "pmdl/lexer.hpp"

#include <cctype>
#include <charconv>
#include <map>

#include "support/error.hpp"

namespace hmpi::pmdl {

const char* tok_name(Tok kind) {
  switch (kind) {
    case Tok::kEnd: return "end of input";
    case Tok::kIdent: return "identifier";
    case Tok::kIntLit: return "integer literal";
    case Tok::kAlgorithm: return "'algorithm'";
    case Tok::kCoord: return "'coord'";
    case Tok::kNode: return "'node'";
    case Tok::kLink: return "'link'";
    case Tok::kParent: return "'parent'";
    case Tok::kScheme: return "'scheme'";
    case Tok::kBench: return "'bench'";
    case Tok::kLength: return "'length'";
    case Tok::kPar: return "'par'";
    case Tok::kFor: return "'for'";
    case Tok::kIf: return "'if'";
    case Tok::kElse: return "'else'";
    case Tok::kInt: return "'int'";
    case Tok::kDouble: return "'double'";
    case Tok::kFloat: return "'float'";
    case Tok::kTypedef: return "'typedef'";
    case Tok::kStruct: return "'struct'";
    case Tok::kSizeof: return "'sizeof'";
    case Tok::kLParen: return "'('";
    case Tok::kRParen: return "')'";
    case Tok::kLBrace: return "'{'";
    case Tok::kRBrace: return "'}'";
    case Tok::kLBracket: return "'['";
    case Tok::kRBracket: return "']'";
    case Tok::kComma: return "','";
    case Tok::kSemicolon: return "';'";
    case Tok::kColon: return "':'";
    case Tok::kDot: return "'.'";
    case Tok::kAssign: return "'='";
    case Tok::kPlus: return "'+'";
    case Tok::kMinus: return "'-'";
    case Tok::kStar: return "'*'";
    case Tok::kSlash: return "'/'";
    case Tok::kPercent: return "'%'";
    case Tok::kPercent2: return "'%%'";
    case Tok::kArrow: return "'->'";
    case Tok::kAmp: return "'&'";
    case Tok::kAndAnd: return "'&&'";
    case Tok::kOrOr: return "'||'";
    case Tok::kNot: return "'!'";
    case Tok::kEq: return "'=='";
    case Tok::kNe: return "'!='";
    case Tok::kLt: return "'<'";
    case Tok::kGt: return "'>'";
    case Tok::kLe: return "'<='";
    case Tok::kGe: return "'>='";
    case Tok::kPlusPlus: return "'++'";
    case Tok::kMinusMinus: return "'--'";
    case Tok::kPlusAssign: return "'+='";
    case Tok::kMinusAssign: return "'-='";
  }
  return "?";
}

namespace {

const std::map<std::string_view, Tok>& keywords() {
  static const std::map<std::string_view, Tok> kw = {
      {"algorithm", Tok::kAlgorithm}, {"coord", Tok::kCoord},
      {"node", Tok::kNode},           {"link", Tok::kLink},
      {"parent", Tok::kParent},       {"scheme", Tok::kScheme},
      {"bench", Tok::kBench},         {"length", Tok::kLength},
      {"par", Tok::kPar},             {"for", Tok::kFor},
      {"if", Tok::kIf},               {"else", Tok::kElse},
      {"int", Tok::kInt},             {"double", Tok::kDouble},
      {"float", Tok::kFloat},         {"typedef", Tok::kTypedef},
      {"struct", Tok::kStruct},       {"sizeof", Tok::kSizeof},
  };
  return kw;
}

class Cursor {
 public:
  explicit Cursor(std::string_view src) : src_(src) {}

  bool done() const { return pos_ >= src_.size(); }
  char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }
  char advance() {
    const char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }
  int line() const { return line_; }
  int column() const { return column_; }

 private:
  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

}  // namespace

std::vector<Token> lex(std::string_view source) {
  std::vector<Token> tokens;
  Cursor cur(source);

  auto push = [&](Tok kind, std::string text, int line, int column) {
    Token t;
    t.kind = kind;
    t.text = std::move(text);
    t.line = line;
    t.column = column;
    tokens.push_back(std::move(t));
  };

  while (!cur.done()) {
    const int line = cur.line();
    const int column = cur.column();
    const char c = cur.peek();

    if (std::isspace(static_cast<unsigned char>(c))) {
      cur.advance();
      continue;
    }
    if (c == '/' && cur.peek(1) == '/') {
      while (!cur.done() && cur.peek() != '\n') cur.advance();
      continue;
    }
    if (c == '/' && cur.peek(1) == '*') {
      cur.advance();
      cur.advance();
      while (!cur.done() && !(cur.peek() == '*' && cur.peek(1) == '/')) {
        cur.advance();
      }
      if (cur.done()) throw PmdlError("unterminated block comment", line, column);
      cur.advance();
      cur.advance();
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string word;
      while (!cur.done() && (std::isalnum(static_cast<unsigned char>(cur.peek())) ||
                             cur.peek() == '_')) {
        word.push_back(cur.advance());
      }
      auto it = keywords().find(word);
      push(it != keywords().end() ? it->second : Tok::kIdent, std::move(word),
           line, column);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::string digits;
      while (!cur.done() && std::isdigit(static_cast<unsigned char>(cur.peek()))) {
        digits.push_back(cur.advance());
      }
      Token t;
      t.kind = Tok::kIntLit;
      const auto [end, error] = std::from_chars(
          digits.data(), digits.data() + digits.size(), t.int_value);
      if (error != std::errc()) {
        throw PmdlError("integer literal " + digits + " does not fit in an int",
                        line, column);
      }
      t.text = std::move(digits);
      t.line = line;
      t.column = column;
      tokens.push_back(std::move(t));
      continue;
    }

    // Operators and punctuation (longest match first).
    auto two = [&](char a, char b) { return c == a && cur.peek(1) == b; };
    Tok kind;
    int length = 2;
    if (two('%', '%')) kind = Tok::kPercent2;
    else if (two('-', '>')) kind = Tok::kArrow;
    else if (two('&', '&')) kind = Tok::kAndAnd;
    else if (two('|', '|')) kind = Tok::kOrOr;
    else if (two('=', '=')) kind = Tok::kEq;
    else if (two('!', '=')) kind = Tok::kNe;
    else if (two('<', '=')) kind = Tok::kLe;
    else if (two('>', '=')) kind = Tok::kGe;
    else if (two('+', '+')) kind = Tok::kPlusPlus;
    else if (two('-', '-')) kind = Tok::kMinusMinus;
    else if (two('+', '=')) kind = Tok::kPlusAssign;
    else if (two('-', '=')) kind = Tok::kMinusAssign;
    else {
      length = 1;
      switch (c) {
        case '(': kind = Tok::kLParen; break;
        case ')': kind = Tok::kRParen; break;
        case '{': kind = Tok::kLBrace; break;
        case '}': kind = Tok::kRBrace; break;
        case '[': kind = Tok::kLBracket; break;
        case ']': kind = Tok::kRBracket; break;
        case ',': kind = Tok::kComma; break;
        case ';': kind = Tok::kSemicolon; break;
        case ':': kind = Tok::kColon; break;
        case '.': kind = Tok::kDot; break;
        case '=': kind = Tok::kAssign; break;
        case '+': kind = Tok::kPlus; break;
        case '-': kind = Tok::kMinus; break;
        case '*': kind = Tok::kStar; break;
        case '/': kind = Tok::kSlash; break;
        case '%': kind = Tok::kPercent; break;
        case '&': kind = Tok::kAmp; break;
        case '!': kind = Tok::kNot; break;
        case '<': kind = Tok::kLt; break;
        case '>': kind = Tok::kGt; break;
        default:
          throw PmdlError(std::string("unexpected character '") + c + "'", line,
                          column);
      }
    }
    std::string text;
    for (int i = 0; i < length; ++i) text.push_back(cur.advance());
    push(kind, std::move(text), line, column);
  }

  push(Tok::kEnd, "", cur.line(), cur.column());
  return tokens;
}

}  // namespace hmpi::pmdl
