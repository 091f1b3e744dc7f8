// BentoScript abstract syntax tree.
//
// Plain-struct nodes owned by unique_ptr; a Program owns everything and is
// immutable after parsing, so one parsed function image can be executed
// many times (and measured once for attestation).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "script/token.hpp"
#include "script/value.hpp"

namespace bento::script {

struct Expr;
struct Stmt;
using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

enum class ExprKind : std::uint8_t {
  Literal,     // int/float/str/bool/none
  Name,        // identifier
  ListLit,     // [a, b, c]
  DictLit,     // {"k": v}
  Unary,       // -x, not x
  Binary,      // arithmetic / comparison / and / or
  Call,        // f(args)
  Index,       // obj[key]
  Attr,        // obj.name
};

struct Expr {
  ExprKind kind;
  int line = 0;
  int height = 1;  // of this subtree: 1 for a leaf (the parser bounds it)

  // Literal
  Value literal;
  // Name / Attr
  std::string name;
  // Unary / Binary operator token
  TokenType op = TokenType::EndOfFile;
  // Children: Unary(a) Binary(a,b) Call(callee=a, args) Index(a, b) Attr(a)
  ExprPtr a;
  ExprPtr b;
  std::vector<ExprPtr> args;
  std::vector<std::pair<ExprPtr, ExprPtr>> pairs;  // DictLit
};

enum class StmtKind : std::uint8_t {
  ExprStmt,
  Assign,       // target = value (Name / Index / Attr target)
  AugAssign,    // target += value, -=
  If,
  While,
  For,          // for name in iterable
  Def,
  Return,
  Break,
  Continue,
  Pass,
};

struct FunctionDef {
  std::string name;
  std::vector<std::string> params;
  std::vector<StmtPtr> body;
  int line = 0;
};

struct Stmt {
  StmtKind kind;
  int line = 0;
  int height = 1;  // of this subtree, nested blocks and expressions included

  ExprPtr expr;    // ExprStmt value / Assign value / condition / Return value
  ExprPtr target;  // Assign & AugAssign target, For iterable
  TokenType op = TokenType::EndOfFile;  // AugAssign operator
  std::string name;                     // For loop variable

  std::vector<StmtPtr> body;
  std::vector<StmtPtr> orelse;  // If: else branch (possibly a chained elif)
  std::shared_ptr<FunctionDef> def;
};

struct Program {
  std::vector<StmtPtr> statements;
};

}  // namespace bento::script
