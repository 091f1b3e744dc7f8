#include "script/parser.hpp"

#include <algorithm>

namespace bento::script {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  std::unique_ptr<Program> run() {
    auto program = std::make_unique<Program>();
    skip_newlines();
    while (!at(TokenType::EndOfFile)) {
      program->statements.push_back(statement());
      skip_newlines();
    }
    return program;
  }

 private:
  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool at(TokenType t) const { return peek().type == t; }
  const Token& advance() { return tokens_[pos_++]; }
  bool match(TokenType t) {
    if (!at(t)) return false;
    ++pos_;
    return true;
  }
  const Token& expect(TokenType t, const char* context) {
    if (!at(t)) {
      throw SyntaxError(std::string("expected ") + to_string(t) + " " + context +
                            ", found " + to_string(peek().type),
                        peek().line);
    }
    return advance();
  }
  void skip_newlines() {
    while (at(TokenType::Newline)) ++pos_;
  }

  // ---- depth bound ----
  //
  // Each node gets its subtree height as it is built and no node may exceed
  // kMaxDepth; that covers left-assoc operator and postfix chains, which
  // grow the tree in a loop. Nest bounds the parser's own recursion, which
  // can run ahead of any node: parentheses nest without building one.

  void check_depth(int depth, int line) const {
    if (depth > kMaxDepth) {
      throw SyntaxError("nesting deeper than " + std::to_string(kMaxDepth), line);
    }
  }

  class Nest {
   public:
    explicit Nest(Parser& p) : p_(p) { p_.check_depth(++p_.depth_, p_.peek().line); }
    ~Nest() { --p_.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    Parser& p_;
  };

  ExprPtr sized(ExprPtr e) {
    int h = 0;
    if (e->a) h = e->a->height;
    if (e->b) h = std::max(h, e->b->height);
    for (const auto& arg : e->args) h = std::max(h, arg->height);
    for (const auto& [key, value] : e->pairs) h = std::max({h, key->height, value->height});
    e->height = h + 1;
    check_depth(e->height, e->line);
    return e;
  }

  StmtPtr sized(StmtPtr s) {
    int h = 0;
    if (s->expr) h = s->expr->height;
    if (s->target) h = std::max(h, s->target->height);
    for (const auto& child : s->body) h = std::max(h, child->height);
    for (const auto& child : s->orelse) h = std::max(h, child->height);
    if (s->def) {
      for (const auto& child : s->def->body) h = std::max(h, child->height);
    }
    s->height = h + 1;
    check_depth(s->height, s->line);
    return s;
  }

  // ---- statements ----

  StmtPtr statement() {
    switch (peek().type) {
      case TokenType::KwDef: return def_statement();
      case TokenType::KwIf: return if_statement();
      case TokenType::KwWhile: return while_statement();
      case TokenType::KwFor: return for_statement();
      case TokenType::KwReturn: return simple_tail(StmtKind::Return, true);
      case TokenType::KwBreak: return simple_tail(StmtKind::Break, false);
      case TokenType::KwContinue: return simple_tail(StmtKind::Continue, false);
      case TokenType::KwPass: return simple_tail(StmtKind::Pass, false);
      default: return expr_or_assign();
    }
  }

  StmtPtr simple_tail(StmtKind kind, bool takes_expr) {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = kind;
    stmt->line = advance().line;
    if (takes_expr && !at(TokenType::Newline) && !at(TokenType::EndOfFile)) {
      stmt->expr = expression();
    }
    end_of_statement();
    return sized(std::move(stmt));
  }

  void end_of_statement() {
    if (at(TokenType::EndOfFile)) return;
    expect(TokenType::Newline, "at end of statement");
  }

  std::vector<StmtPtr> block() {
    const Nest nest(*this);
    expect(TokenType::Colon, "before block");
    expect(TokenType::Newline, "before block");
    skip_newlines();
    expect(TokenType::Indent, "to open block");
    std::vector<StmtPtr> body;
    skip_newlines();
    while (!at(TokenType::Dedent) && !at(TokenType::EndOfFile)) {
      body.push_back(statement());
      skip_newlines();
    }
    expect(TokenType::Dedent, "to close block");
    if (body.empty()) throw SyntaxError("empty block", peek().line);
    return body;
  }

  StmtPtr def_statement() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::Def;
    stmt->line = advance().line;
    auto def = std::make_shared<FunctionDef>();
    def->line = stmt->line;
    def->name = expect(TokenType::Identifier, "after def").text;
    expect(TokenType::LParen, "after function name");
    if (!at(TokenType::RParen)) {
      do {
        def->params.push_back(expect(TokenType::Identifier, "in parameter list").text);
      } while (match(TokenType::Comma));
    }
    expect(TokenType::RParen, "after parameters");
    def->body = block();
    stmt->def = std::move(def);
    return sized(std::move(stmt));
  }

  StmtPtr if_statement() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::If;
    stmt->line = advance().line;
    stmt->expr = expression();
    stmt->body = block();
    skip_newlines();
    if (at(TokenType::KwElif)) {
      // Desugar elif into else { if ... }.
      stmt->orelse.push_back(if_statement_from_elif());
    } else if (match(TokenType::KwElse)) {
      stmt->orelse = block();
    }
    return sized(std::move(stmt));
  }

  StmtPtr if_statement_from_elif() {
    // Current token is KwElif; treat it as a nested if.
    const Nest nest(*this);
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::If;
    stmt->line = advance().line;
    stmt->expr = expression();
    stmt->body = block();
    skip_newlines();
    if (at(TokenType::KwElif)) {
      stmt->orelse.push_back(if_statement_from_elif());
    } else if (match(TokenType::KwElse)) {
      stmt->orelse = block();
    }
    return sized(std::move(stmt));
  }

  StmtPtr while_statement() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::While;
    stmt->line = advance().line;
    stmt->expr = expression();
    stmt->body = block();
    return sized(std::move(stmt));
  }

  StmtPtr for_statement() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::For;
    stmt->line = advance().line;
    stmt->name = expect(TokenType::Identifier, "after for").text;
    expect(TokenType::KwIn, "in for statement");
    stmt->target = expression();
    stmt->body = block();
    return sized(std::move(stmt));
  }

  StmtPtr expr_or_assign() {
    const int line = peek().line;
    ExprPtr first = expression();
    if (at(TokenType::Assign) || at(TokenType::PlusAssign) ||
        at(TokenType::MinusAssign)) {
      const TokenType op = advance().type;
      if (first->kind != ExprKind::Name && first->kind != ExprKind::Index &&
          first->kind != ExprKind::Attr) {
        throw SyntaxError("invalid assignment target", line);
      }
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = op == TokenType::Assign ? StmtKind::Assign : StmtKind::AugAssign;
      stmt->op = op;
      stmt->line = line;
      stmt->target = std::move(first);
      stmt->expr = expression();
      end_of_statement();
      return sized(std::move(stmt));
    }
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::ExprStmt;
    stmt->line = line;
    stmt->expr = std::move(first);
    end_of_statement();
    return sized(std::move(stmt));
  }

  // ---- expressions (precedence climbing) ----

  ExprPtr expression() {
    const Nest nest(*this);
    return or_expr();
  }

  ExprPtr make_binary(TokenType op, int line, ExprPtr a, ExprPtr b) {
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::Binary;
    e->op = op;
    e->line = line;
    e->a = std::move(a);
    e->b = std::move(b);
    return sized(std::move(e));
  }

  ExprPtr or_expr() {
    ExprPtr left = and_expr();
    while (at(TokenType::KwOr)) {
      const int line = advance().line;
      left = make_binary(TokenType::KwOr, line, std::move(left), and_expr());
    }
    return left;
  }

  ExprPtr and_expr() {
    ExprPtr left = not_expr();
    while (at(TokenType::KwAnd)) {
      const int line = advance().line;
      left = make_binary(TokenType::KwAnd, line, std::move(left), not_expr());
    }
    return left;
  }

  ExprPtr not_expr() {
    if (at(TokenType::KwNot)) {
      const Nest nest(*this);
      const int line = advance().line;
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::Unary;
      e->op = TokenType::KwNot;
      e->line = line;
      e->a = not_expr();
      return sized(std::move(e));
    }
    return comparison();
  }

  ExprPtr comparison() {
    ExprPtr left = additive();
    while (at(TokenType::Eq) || at(TokenType::Ne) || at(TokenType::Lt) ||
           at(TokenType::Le) || at(TokenType::Gt) || at(TokenType::Ge) ||
           at(TokenType::KwIn)) {
      const Token& t = advance();
      left = make_binary(t.type, t.line, std::move(left), additive());
    }
    return left;
  }

  ExprPtr additive() {
    ExprPtr left = multiplicative();
    while (at(TokenType::Plus) || at(TokenType::Minus)) {
      const Token& t = advance();
      left = make_binary(t.type, t.line, std::move(left), multiplicative());
    }
    return left;
  }

  ExprPtr multiplicative() {
    ExprPtr left = unary();
    while (at(TokenType::Star) || at(TokenType::Slash) || at(TokenType::Percent)) {
      const Token& t = advance();
      left = make_binary(t.type, t.line, std::move(left), unary());
    }
    return left;
  }

  ExprPtr unary() {
    if (at(TokenType::Minus)) {
      const Nest nest(*this);
      const int line = advance().line;
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::Unary;
      e->op = TokenType::Minus;
      e->line = line;
      e->a = unary();
      return sized(std::move(e));
    }
    return postfix();
  }

  ExprPtr postfix() {
    ExprPtr e = primary();
    while (true) {
      if (at(TokenType::LParen)) {
        const int line = advance().line;
        auto call = std::make_unique<Expr>();
        call->kind = ExprKind::Call;
        call->line = line;
        call->a = std::move(e);
        if (!at(TokenType::RParen)) {
          do {
            call->args.push_back(expression());
          } while (match(TokenType::Comma));
        }
        expect(TokenType::RParen, "after arguments");
        e = sized(std::move(call));
      } else if (at(TokenType::LBracket)) {
        const int line = advance().line;
        auto idx = std::make_unique<Expr>();
        idx->kind = ExprKind::Index;
        idx->line = line;
        idx->a = std::move(e);
        idx->b = expression();
        expect(TokenType::RBracket, "after index");
        e = sized(std::move(idx));
      } else if (at(TokenType::Dot)) {
        const int line = advance().line;
        auto attr = std::make_unique<Expr>();
        attr->kind = ExprKind::Attr;
        attr->line = line;
        attr->name = expect(TokenType::Identifier, "after '.'").text;
        attr->a = std::move(e);
        e = sized(std::move(attr));
      } else {
        return e;
      }
    }
  }

  ExprPtr primary() {
    const Token& t = peek();
    auto e = std::make_unique<Expr>();
    e->line = t.line;
    switch (t.type) {
      case TokenType::Int:
        e->kind = ExprKind::Literal;
        e->literal = Value::integer(t.int_value);
        ++pos_;
        return e;
      case TokenType::Float:
        e->kind = ExprKind::Literal;
        e->literal = Value::real(t.float_value);
        ++pos_;
        return e;
      case TokenType::Str:
        e->kind = ExprKind::Literal;
        e->literal = Value::str(t.text);
        ++pos_;
        return e;
      case TokenType::KwTrue:
      case TokenType::KwFalse:
        e->kind = ExprKind::Literal;
        e->literal = Value::boolean(t.type == TokenType::KwTrue);
        ++pos_;
        return e;
      case TokenType::KwNone:
        e->kind = ExprKind::Literal;
        ++pos_;
        return e;
      case TokenType::Identifier:
        e->kind = ExprKind::Name;
        e->name = t.text;
        ++pos_;
        return e;
      case TokenType::LParen: {
        ++pos_;
        ExprPtr inner = expression();
        expect(TokenType::RParen, "after parenthesized expression");
        return inner;
      }
      case TokenType::LBracket: {
        ++pos_;
        e->kind = ExprKind::ListLit;
        if (!at(TokenType::RBracket)) {
          do {
            e->args.push_back(expression());
          } while (match(TokenType::Comma) && !at(TokenType::RBracket));
        }
        expect(TokenType::RBracket, "after list literal");
        return sized(std::move(e));
      }
      case TokenType::LBrace: {
        ++pos_;
        e->kind = ExprKind::DictLit;
        if (!at(TokenType::RBrace)) {
          do {
            ExprPtr key = expression();
            expect(TokenType::Colon, "in dict literal");
            ExprPtr value = expression();
            e->pairs.emplace_back(std::move(key), std::move(value));
          } while (match(TokenType::Comma) && !at(TokenType::RBrace));
        }
        expect(TokenType::RBrace, "after dict literal");
        return sized(std::move(e));
      }
      default:
        throw SyntaxError(std::string("unexpected token ") + to_string(t.type),
                          t.line);
    }
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // live Nest guards
};

}  // namespace

std::unique_ptr<Program> parse(const std::string& source) {
  return Parser(tokenize(source)).run();
}

}  // namespace bento::script
