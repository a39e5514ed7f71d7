#include "pmdl/parser.hpp"

#include <set>
#include <string>
#include <utility>

#include "pmdl/lexer.hpp"
#include "support/error.hpp"

namespace hmpi::pmdl {

namespace {

using namespace ast;

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  std::shared_ptr<Algorithm> parse_model() {
    auto algo = std::make_shared<Algorithm>();
    while (check(Tok::kTypedef)) {
      algo->structs.push_back(parse_typedef());
      struct_names_.insert(algo->structs.back().name);
    }
    parse_algorithm(*algo);
    accept(Tok::kSemicolon);
    expect(Tok::kEnd);
    return algo;
  }

 private:
  // --- token helpers --------------------------------------------------------

  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool check(Tok kind) const { return peek().kind == kind; }
  bool accept(Tok kind) {
    if (!check(kind)) return false;
    ++pos_;
    return true;
  }
  const Token& expect(Tok kind) {
    if (!check(kind)) {
      throw PmdlError(std::string("expected ") + tok_name(kind) + ", found " +
                          tok_name(peek().kind) +
                          (peek().text.empty() ? "" : " '" + peek().text + "'"),
                      peek().line, peek().column);
    }
    return tokens_[pos_++];
  }
  Pos here() const { return {peek().line, peek().column}; }

  [[noreturn]] void fail(const std::string& message) const {
    throw PmdlError(message, peek().line, peek().column);
  }

  bool is_type_name(const Token& t) const {
    return t.kind == Tok::kInt ||
           (t.kind == Tok::kIdent && struct_names_.count(t.text) > 0);
  }

  // --- declarations ---------------------------------------------------------

  StructDef parse_typedef() {
    StructDef def;
    def.pos = here();
    expect(Tok::kTypedef);
    expect(Tok::kStruct);
    expect(Tok::kLBrace);
    while (!accept(Tok::kRBrace)) {
      expect(Tok::kInt);
      def.fields.push_back(expect(Tok::kIdent).text);
      while (accept(Tok::kComma)) def.fields.push_back(expect(Tok::kIdent).text);
      expect(Tok::kSemicolon);
    }
    def.name = expect(Tok::kIdent).text;
    expect(Tok::kSemicolon);
    if (def.fields.empty()) {
      throw PmdlError("struct '" + def.name + "' has no fields", def.pos.line,
                      def.pos.column);
    }
    return def;
  }

  void parse_algorithm(Algorithm& algo) {
    algo.pos = here();
    expect(Tok::kAlgorithm);
    algo.name = expect(Tok::kIdent).text;
    expect(Tok::kLParen);
    if (!check(Tok::kRParen)) {
      algo.params.push_back(parse_param());
      while (accept(Tok::kComma)) algo.params.push_back(parse_param());
    }
    expect(Tok::kRParen);
    expect(Tok::kLBrace);
    while (!accept(Tok::kRBrace)) parse_section(algo);
    if (algo.coords.empty()) {
      throw PmdlError("algorithm '" + algo.name + "' has no coord declaration",
                      algo.pos.line, algo.pos.column);
    }
  }

  Param parse_param() {
    Param p;
    p.pos = here();
    expect(Tok::kInt);
    p.name = expect(Tok::kIdent).text;
    while (accept(Tok::kLBracket)) {
      p.dims.push_back(parse_expr());
      expect(Tok::kRBracket);
    }
    return p;
  }

  void parse_section(Algorithm& algo) {
    switch (peek().kind) {
      case Tok::kCoord: parse_coord(algo); break;
      case Tok::kNode: parse_node(algo); break;
      case Tok::kLink: parse_link(algo); break;
      case Tok::kParent: parse_parent(algo); break;
      case Tok::kScheme: parse_scheme(algo); break;
      default:
        fail(std::string("expected a section (coord/node/link/parent/scheme), "
                         "found ") +
             tok_name(peek().kind));
    }
  }

  CoordVar parse_coord_var() {
    CoordVar cv;
    cv.pos = here();
    cv.name = expect(Tok::kIdent).text;
    expect(Tok::kAssign);
    cv.extent = parse_expr();
    return cv;
  }

  void parse_coord(Algorithm& algo) {
    expect(Tok::kCoord);
    algo.coords.push_back(parse_coord_var());
    while (accept(Tok::kComma)) algo.coords.push_back(parse_coord_var());
    expect(Tok::kSemicolon);
  }

  void parse_node(Algorithm& algo) {
    expect(Tok::kNode);
    expect(Tok::kLBrace);
    while (!accept(Tok::kRBrace)) {
      NodeClause clause;
      clause.pos = here();
      clause.cond = parse_expr();
      expect(Tok::kColon);
      expect(Tok::kBench);
      expect(Tok::kStar);
      expect(Tok::kLParen);
      clause.volume = parse_expr();
      expect(Tok::kRParen);
      expect(Tok::kSemicolon);
      algo.node_clauses.push_back(std::move(clause));
    }
    accept(Tok::kSemicolon);
  }

  std::vector<ExprPtr> parse_coord_list() {
    std::vector<ExprPtr> coords;
    expect(Tok::kLBracket);
    coords.push_back(parse_expr());
    while (accept(Tok::kComma)) coords.push_back(parse_expr());
    expect(Tok::kRBracket);
    return coords;
  }

  void parse_link(Algorithm& algo) {
    expect(Tok::kLink);
    if (accept(Tok::kLParen)) {
      algo.link_iters.push_back(parse_coord_var());
      while (accept(Tok::kComma)) algo.link_iters.push_back(parse_coord_var());
      expect(Tok::kRParen);
    }
    expect(Tok::kLBrace);
    while (!accept(Tok::kRBrace)) {
      LinkClause clause;
      clause.pos = here();
      clause.cond = parse_expr();
      expect(Tok::kColon);
      expect(Tok::kLength);
      expect(Tok::kStar);
      expect(Tok::kLParen);
      clause.bytes = parse_expr();
      expect(Tok::kRParen);
      clause.src_coords = parse_coord_list();
      expect(Tok::kArrow);
      clause.dst_coords = parse_coord_list();
      expect(Tok::kSemicolon);
      algo.link_clauses.push_back(std::move(clause));
    }
    accept(Tok::kSemicolon);
  }

  void parse_parent(Algorithm& algo) {
    expect(Tok::kParent);
    algo.parent_coords = parse_coord_list();
    expect(Tok::kSemicolon);
  }

  void parse_scheme(Algorithm& algo) {
    const Token& kw = expect(Tok::kScheme);
    if (algo.scheme) {
      throw PmdlError("duplicate scheme section", kw.line, kw.column);
    }
    algo.scheme = parse_block();
    accept(Tok::kSemicolon);
  }

  // --- statements -----------------------------------------------------------

  StmtPtr parse_block() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kBlock;
    stmt->pos = here();
    expect(Tok::kLBrace);
    while (!accept(Tok::kRBrace)) stmt->body.push_back(parse_stmt());
    return stmt;
  }

  /// `type item (, item)*` without the trailing semicolon.
  StmtPtr parse_decl_no_semi() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kDecl;
    stmt->pos = here();
    if (accept(Tok::kInt)) {
      stmt->decl_type = "int";
    } else {
      stmt->decl_type = expect(Tok::kIdent).text;
    }
    for (;;) {
      DeclItem item;
      item.name = expect(Tok::kIdent).text;
      if (accept(Tok::kAssign)) item.init = parse_expr();
      stmt->decls.push_back(std::move(item));
      if (!accept(Tok::kComma)) break;
    }
    return stmt;
  }

  StmtPtr parse_stmt() {
    switch (peek().kind) {
      case Tok::kLBrace: return parse_block();
      case Tok::kIf: return parse_if();
      case Tok::kFor: return parse_loop(StmtKind::kFor);
      case Tok::kPar: return parse_loop(StmtKind::kPar);
      default: break;
    }
    if (is_type_name(peek()) && peek(1).kind == Tok::kIdent) {
      StmtPtr decl = parse_decl_no_semi();
      expect(Tok::kSemicolon);
      return decl;
    }
    return parse_expr_or_activation();
  }

  StmtPtr parse_if() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kIf;
    stmt->pos = here();
    expect(Tok::kIf);
    expect(Tok::kLParen);
    stmt->expr = parse_expr();
    expect(Tok::kRParen);
    stmt->then_branch = parse_stmt();
    if (accept(Tok::kElse)) stmt->else_branch = parse_stmt();
    return stmt;
  }

  StmtPtr parse_loop(StmtKind kind) {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = kind;
    stmt->pos = here();
    expect(kind == StmtKind::kFor ? Tok::kFor : Tok::kPar);
    expect(Tok::kLParen);
    if (!check(Tok::kSemicolon)) {
      if (is_type_name(peek()) && peek(1).kind == Tok::kIdent) {
        stmt->init_stmt = parse_decl_no_semi();
      } else {
        auto init = std::make_unique<Stmt>();
        init->kind = StmtKind::kExpr;
        init->pos = here();
        init->expr = parse_expr();
        stmt->init_stmt = std::move(init);
      }
    }
    expect(Tok::kSemicolon);
    if (!check(Tok::kSemicolon)) stmt->expr = parse_expr();
    expect(Tok::kSemicolon);
    if (!check(Tok::kRParen)) stmt->step = parse_expr();
    expect(Tok::kRParen);
    stmt->loop_body = parse_stmt();
    return stmt;
  }

  /// Either `expr ;` or an activation: `expr %% [coords] (-> [coords])? ;`
  StmtPtr parse_expr_or_activation() {
    auto stmt = std::make_unique<Stmt>();
    stmt->pos = here();
    stmt->expr = parse_expr();
    if (accept(Tok::kPercent2)) {
      stmt->src_coords = parse_coord_list();
      if (accept(Tok::kArrow)) {
        stmt->kind = StmtKind::kComm;
        stmt->dst_coords = parse_coord_list();
      } else {
        stmt->kind = StmtKind::kComp;
      }
    } else {
      stmt->kind = StmtKind::kExpr;
    }
    expect(Tok::kSemicolon);
    return stmt;
  }

  // --- expressions ----------------------------------------------------------

  ExprPtr make_expr(ExprKind kind) {
    auto e = std::make_unique<Expr>();
    e->kind = kind;
    e->pos = here();
    return e;
  }

  ExprPtr parse_expr() { return parse_assignment(); }

  ExprPtr parse_assignment() {
    ExprPtr lhs = parse_logic_or();
    if (check(Tok::kAssign) || check(Tok::kPlusAssign) ||
        check(Tok::kMinusAssign)) {
      auto e = make_expr(ExprKind::kAssign);
      e->op = tokens_[pos_++].kind;
      e->lhs = std::move(lhs);
      e->rhs = parse_assignment();  // right-associative
      return e;
    }
    return lhs;
  }

  ExprPtr parse_binary_chain(ExprPtr (Parser::*next)(),
                             std::initializer_list<Tok> ops) {
    ExprPtr lhs = (this->*next)();
    for (;;) {
      bool matched = false;
      for (Tok op : ops) {
        if (check(op)) {
          auto e = make_expr(ExprKind::kBinary);
          e->op = tokens_[pos_++].kind;
          e->lhs = std::move(lhs);
          e->rhs = (this->*next)();
          lhs = std::move(e);
          matched = true;
          break;
        }
      }
      if (!matched) return lhs;
    }
  }

  ExprPtr parse_logic_or() {
    return parse_binary_chain(&Parser::parse_logic_and, {Tok::kOrOr});
  }
  ExprPtr parse_logic_and() {
    return parse_binary_chain(&Parser::parse_equality, {Tok::kAndAnd});
  }
  ExprPtr parse_equality() {
    return parse_binary_chain(&Parser::parse_relational, {Tok::kEq, Tok::kNe});
  }
  ExprPtr parse_relational() {
    return parse_binary_chain(&Parser::parse_additive,
                              {Tok::kLt, Tok::kGt, Tok::kLe, Tok::kGe});
  }
  ExprPtr parse_additive() {
    return parse_binary_chain(&Parser::parse_multiplicative,
                              {Tok::kPlus, Tok::kMinus});
  }
  ExprPtr parse_multiplicative() {
    return parse_binary_chain(&Parser::parse_unary,
                              {Tok::kStar, Tok::kSlash, Tok::kPercent});
  }

  ExprPtr parse_unary() {
    if (check(Tok::kMinus) || check(Tok::kNot)) {
      auto e = make_expr(ExprKind::kUnary);
      e->op = tokens_[pos_++].kind;
      e->lhs = parse_unary();
      return e;
    }
    if (check(Tok::kAmp)) {
      auto e = make_expr(ExprKind::kAddressOf);
      ++pos_;
      e->lhs = parse_unary();
      return e;
    }
    return parse_postfix();
  }

  ExprPtr parse_postfix() {
    ExprPtr e = parse_primary();
    for (;;) {
      if (accept(Tok::kLBracket)) {
        auto idx = make_expr(ExprKind::kIndex);
        idx->lhs = std::move(e);
        idx->rhs = parse_expr();
        expect(Tok::kRBracket);
        e = std::move(idx);
      } else if (accept(Tok::kDot)) {
        auto mem = make_expr(ExprKind::kMember);
        mem->lhs = std::move(e);
        mem->name = expect(Tok::kIdent).text;
        e = std::move(mem);
      } else if (check(Tok::kPlusPlus) || check(Tok::kMinusMinus)) {
        auto post = make_expr(ExprKind::kPostfix);
        post->op = tokens_[pos_++].kind;
        post->lhs = std::move(e);
        e = std::move(post);
      } else {
        return e;
      }
    }
  }

  ExprPtr parse_primary() {
    if (check(Tok::kIntLit)) {
      auto e = make_expr(ExprKind::kIntLit);
      e->int_value = tokens_[pos_++].int_value;
      return e;
    }
    if (check(Tok::kSizeof)) {
      auto e = make_expr(ExprKind::kSizeof);
      ++pos_;
      expect(Tok::kLParen);
      switch (peek().kind) {
        case Tok::kInt:
        case Tok::kDouble:
        case Tok::kFloat:
          e->name = tokens_[pos_++].text;
          break;
        case Tok::kIdent:
          e->name = tokens_[pos_++].text;
          break;
        default:
          fail("expected a type name in sizeof");
      }
      expect(Tok::kRParen);
      return e;
    }
    if (check(Tok::kIdent)) {
      if (peek(1).kind == Tok::kLParen) {
        auto e = make_expr(ExprKind::kCall);
        e->name = tokens_[pos_++].text;
        expect(Tok::kLParen);
        if (!check(Tok::kRParen)) {
          e->args.push_back(parse_expr());
          while (accept(Tok::kComma)) e->args.push_back(parse_expr());
        }
        expect(Tok::kRParen);
        return e;
      }
      auto e = make_expr(ExprKind::kIdent);
      e->name = tokens_[pos_++].text;
      return e;
    }
    if (accept(Tok::kLParen)) {
      ExprPtr e = parse_expr();
      expect(Tok::kRParen);
      return e;
    }
    fail(std::string("expected an expression, found ") + tok_name(peek().kind));
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::set<std::string> struct_names_;
};

}  // namespace

std::shared_ptr<ast::Algorithm> parse(std::string_view source) {
  Parser parser(lex(source));
  return parser.parse_model();
}

}  // namespace hmpi::pmdl
