#include "pmdl/lexer.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace hmpi::pmdl {
namespace {

std::vector<Tok> kinds(std::string_view src) {
  std::vector<Tok> out;
  for (const Token& t : lex(src)) out.push_back(t.kind);
  return out;
}

TEST(Lexer, EmptyInputYieldsEnd) {
  auto tokens = lex("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].kind, Tok::kEnd);
}

TEST(Lexer, Keywords) {
  EXPECT_EQ(kinds("algorithm coord node link parent scheme"),
            (std::vector<Tok>{Tok::kAlgorithm, Tok::kCoord, Tok::kNode,
                              Tok::kLink, Tok::kParent, Tok::kScheme, Tok::kEnd}));
  EXPECT_EQ(kinds("par for if else int bench length sizeof typedef struct"),
            (std::vector<Tok>{Tok::kPar, Tok::kFor, Tok::kIf, Tok::kElse,
                              Tok::kInt, Tok::kBench, Tok::kLength, Tok::kSizeof,
                              Tok::kTypedef, Tok::kStruct, Tok::kEnd}));
}

TEST(Lexer, IdentifiersAndLiterals) {
  auto tokens = lex("Em3d x_1 42 007");
  EXPECT_EQ(tokens[0].kind, Tok::kIdent);
  EXPECT_EQ(tokens[0].text, "Em3d");
  EXPECT_EQ(tokens[1].text, "x_1");
  EXPECT_EQ(tokens[2].kind, Tok::kIntLit);
  EXPECT_EQ(tokens[2].int_value, 42);
  EXPECT_EQ(tokens[3].int_value, 7);
}

TEST(Lexer, PercentPercentVsPercent) {
  EXPECT_EQ(kinds("a %% b % c"),
            (std::vector<Tok>{Tok::kIdent, Tok::kPercent2, Tok::kIdent,
                              Tok::kPercent, Tok::kIdent, Tok::kEnd}));
}

TEST(Lexer, ArrowVsMinus) {
  EXPECT_EQ(kinds("a->b a-b a--"),
            (std::vector<Tok>{Tok::kIdent, Tok::kArrow, Tok::kIdent, Tok::kIdent,
                              Tok::kMinus, Tok::kIdent, Tok::kIdent,
                              Tok::kMinusMinus, Tok::kEnd}));
}

TEST(Lexer, ComparisonOperators) {
  EXPECT_EQ(kinds("== != <= >= < > ="),
            (std::vector<Tok>{Tok::kEq, Tok::kNe, Tok::kLe, Tok::kGe, Tok::kLt,
                              Tok::kGt, Tok::kAssign, Tok::kEnd}));
}

TEST(Lexer, CompoundAssignAndIncrement) {
  EXPECT_EQ(kinds("+= -= ++ --"),
            (std::vector<Tok>{Tok::kPlusAssign, Tok::kMinusAssign,
                              Tok::kPlusPlus, Tok::kMinusMinus, Tok::kEnd}));
}

TEST(Lexer, LogicalOperators) {
  EXPECT_EQ(kinds("&& || ! &"),
            (std::vector<Tok>{Tok::kAndAnd, Tok::kOrOr, Tok::kNot, Tok::kAmp,
                              Tok::kEnd}));
}

TEST(Lexer, LineCommentSkipped) {
  EXPECT_EQ(kinds("a // comment to end of line\nb"),
            (std::vector<Tok>{Tok::kIdent, Tok::kIdent, Tok::kEnd}));
}

TEST(Lexer, BlockCommentSkipped) {
  EXPECT_EQ(kinds("a /* multi\nline */ b"),
            (std::vector<Tok>{Tok::kIdent, Tok::kIdent, Tok::kEnd}));
}

TEST(Lexer, UnterminatedBlockCommentThrows) {
  EXPECT_THROW(lex("a /* oops"), PmdlError);
}

TEST(Lexer, PositionsAreTracked) {
  auto tokens = lex("a\n  b");
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[0].column, 1);
  EXPECT_EQ(tokens[1].line, 2);
  EXPECT_EQ(tokens[1].column, 3);
}

TEST(Lexer, UnknownCharacterThrowsWithPosition) {
  try {
    lex("a\n@");
    FAIL() << "expected PmdlError";
  } catch (const PmdlError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 1);
  }
}

TEST(Lexer, OversizedIntegerLiteralThrowsWithPosition) {
  EXPECT_EQ(lex("9223372036854775807")[0].int_value, 9223372036854775807LL);
  try {
    lex("a\n 9223372036854775808");
    FAIL() << "expected PmdlError";
  } catch (const PmdlError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 2);
  }
}

TEST(Lexer, ActivationStatementTokens) {
  // The shape used throughout the paper: (100/n)%%[I,J]->[K,L];
  EXPECT_EQ(kinds("(100/n)%%[I,J]->[K,L];"),
            (std::vector<Tok>{Tok::kLParen, Tok::kIntLit, Tok::kSlash,
                              Tok::kIdent, Tok::kRParen, Tok::kPercent2,
                              Tok::kLBracket, Tok::kIdent, Tok::kComma,
                              Tok::kIdent, Tok::kRBracket, Tok::kArrow,
                              Tok::kLBracket, Tok::kIdent, Tok::kComma,
                              Tok::kIdent, Tok::kRBracket, Tok::kSemicolon,
                              Tok::kEnd}));
}

}  // namespace
}  // namespace hmpi::pmdl
