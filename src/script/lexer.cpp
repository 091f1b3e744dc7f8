#include "script/lexer.hpp"

#include <cctype>
#include <map>

namespace bento::script {

const char* to_string(TokenType t) {
  switch (t) {
    case TokenType::Identifier: return "identifier";
    case TokenType::Int: return "int";
    case TokenType::Float: return "float";
    case TokenType::Str: return "string";
    case TokenType::KwDef: return "def";
    case TokenType::KwReturn: return "return";
    case TokenType::KwIf: return "if";
    case TokenType::KwElif: return "elif";
    case TokenType::KwElse: return "else";
    case TokenType::KwWhile: return "while";
    case TokenType::KwFor: return "for";
    case TokenType::KwIn: return "in";
    case TokenType::KwBreak: return "break";
    case TokenType::KwContinue: return "continue";
    case TokenType::KwPass: return "pass";
    case TokenType::KwAnd: return "and";
    case TokenType::KwOr: return "or";
    case TokenType::KwNot: return "not";
    case TokenType::KwTrue: return "True";
    case TokenType::KwFalse: return "False";
    case TokenType::KwNone: return "None";
    case TokenType::LParen: return "(";
    case TokenType::RParen: return ")";
    case TokenType::LBracket: return "[";
    case TokenType::RBracket: return "]";
    case TokenType::LBrace: return "{";
    case TokenType::RBrace: return "}";
    case TokenType::Comma: return ",";
    case TokenType::Colon: return ":";
    case TokenType::Dot: return ".";
    case TokenType::Assign: return "=";
    case TokenType::PlusAssign: return "+=";
    case TokenType::MinusAssign: return "-=";
    case TokenType::Plus: return "+";
    case TokenType::Minus: return "-";
    case TokenType::Star: return "*";
    case TokenType::Slash: return "/";
    case TokenType::Percent: return "%";
    case TokenType::Eq: return "==";
    case TokenType::Ne: return "!=";
    case TokenType::Lt: return "<";
    case TokenType::Le: return "<=";
    case TokenType::Gt: return ">";
    case TokenType::Ge: return ">=";
    case TokenType::Newline: return "newline";
    case TokenType::Indent: return "indent";
    case TokenType::Dedent: return "dedent";
    case TokenType::EndOfFile: return "eof";
  }
  return "?";
}

namespace {
const std::map<std::string, TokenType>& keywords() {
  static const std::map<std::string, TokenType> kw = {
      {"def", TokenType::KwDef},       {"return", TokenType::KwReturn},
      {"if", TokenType::KwIf},         {"elif", TokenType::KwElif},
      {"else", TokenType::KwElse},     {"while", TokenType::KwWhile},
      {"for", TokenType::KwFor},       {"in", TokenType::KwIn},
      {"break", TokenType::KwBreak},   {"continue", TokenType::KwContinue},
      {"pass", TokenType::KwPass},     {"and", TokenType::KwAnd},
      {"or", TokenType::KwOr},         {"not", TokenType::KwNot},
      {"True", TokenType::KwTrue},     {"true", TokenType::KwTrue},
      {"False", TokenType::KwFalse},   {"false", TokenType::KwFalse},
      {"None", TokenType::KwNone},     {"nil", TokenType::KwNone},
  };
  return kw;
}

class Lexer {
 public:
  explicit Lexer(const std::string& src) : src_(src) {}

  std::vector<Token> run() {
    indents_.push_back(0);
    while (pos_ < src_.size()) {
      lex_line();
    }
    // Close the final line and any open indents.
    if (!tokens_.empty() && tokens_.back().type != TokenType::Newline) {
      emit(TokenType::Newline);
    }
    while (indents_.back() > 0) {
      indents_.pop_back();
      emit(TokenType::Dedent);
    }
    emit(TokenType::EndOfFile);
    return std::move(tokens_);
  }

 private:
  void emit(TokenType type) {
    Token t;
    t.type = type;
    t.line = line_;
    tokens_.push_back(std::move(t));
  }

  char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }
  char advance() { return src_[pos_++]; }

  void lex_line() {
    // Measure indentation (spaces only; tabs count as 8).
    int indent = 0;
    while (pos_ < src_.size() && (peek() == ' ' || peek() == '\t')) {
      indent += peek() == '\t' ? 8 : 1;
      ++pos_;
    }
    // Blank line or comment-only line: swallow without layout changes.
    if (pos_ >= src_.size()) return;
    if (peek() == '\n') {
      ++pos_;
      ++line_;
      return;
    }
    if (peek() == '#') {
      skip_comment();
      return;
    }

    if (paren_depth_ == 0) handle_indent(indent);

    while (pos_ < src_.size() && peek() != '\n') {
      if (peek() == '#') {
        skip_comment_to_eol();
        break;
      }
      lex_token();
    }
    if (pos_ < src_.size() && peek() == '\n') {
      ++pos_;
      ++line_;
    }
    if (paren_depth_ == 0) {
      if (!tokens_.empty() && tokens_.back().type != TokenType::Newline &&
          tokens_.back().type != TokenType::Indent &&
          tokens_.back().type != TokenType::Dedent) {
        emit(TokenType::Newline);
      }
    }
  }

  void skip_comment() {
    while (pos_ < src_.size() && peek() != '\n') ++pos_;
    if (pos_ < src_.size()) {
      ++pos_;
      ++line_;
    }
  }
  void skip_comment_to_eol() {
    while (pos_ < src_.size() && peek() != '\n') ++pos_;
  }

  void handle_indent(int indent) {
    if (indent > indents_.back()) {
      indents_.push_back(indent);
      emit(TokenType::Indent);
      return;
    }
    while (indent < indents_.back()) {
      indents_.pop_back();
      emit(TokenType::Dedent);
    }
    if (indent != indents_.back()) {
      throw SyntaxError("inconsistent indentation", line_);
    }
  }

  void lex_token() {
    const char c = peek();
    if (c == ' ' || c == '\t' || c == '\r') {
      ++pos_;
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      lex_number();
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      lex_identifier();
      return;
    }
    if (c == '"' || c == '\'') {
      lex_string();
      return;
    }
    if (c == '\\' && peek(1) == '\n') {  // explicit line continuation
      pos_ += 2;
      ++line_;
      return;
    }
    lex_operator();
  }

  void lex_number() {
    Token t;
    t.line = line_;
    std::string digits;
    bool is_float = false;
    while (std::isdigit(static_cast<unsigned char>(peek())) || peek() == '_' ||
           peek() == '.') {
      const char c = advance();
      if (c == '.') {
        if (is_float || !std::isdigit(static_cast<unsigned char>(peek()))) {
          --pos_;  // a trailing '.' is attribute access, not a float
          break;
        }
        is_float = true;
      }
      if (c != '_') digits.push_back(c);
    }
    // An uploaded literal may not fit its type; that is the uploader's
    // syntax error, never an exception that escapes the box.
    try {
      if (is_float) {
        t.type = TokenType::Float;
        t.float_value = std::stod(digits);
      } else {
        t.type = TokenType::Int;
        t.int_value = std::stoll(digits);
      }
    } catch (const std::out_of_range&) {
      throw SyntaxError(is_float ? "float literal out of range"
                                 : "integer literal out of range",
                        t.line);
    }
    tokens_.push_back(std::move(t));
  }

  void lex_identifier() {
    Token t;
    t.line = line_;
    std::string name;
    while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_') {
      name.push_back(advance());
    }
    auto it = keywords().find(name);
    if (it != keywords().end()) {
      t.type = it->second;
    } else {
      t.type = TokenType::Identifier;
      t.text = name;
    }
    tokens_.push_back(std::move(t));
  }

  void lex_string() {
    const char quote = advance();
    Token t;
    t.line = line_;
    t.type = TokenType::Str;
    while (true) {
      if (pos_ >= src_.size() || peek() == '\n') {
        throw SyntaxError("unterminated string", line_);
      }
      char c = advance();
      if (c == quote) break;
      if (c == '\\') {
        const char esc = advance();
        switch (esc) {
          case 'n': t.text.push_back('\n'); break;
          case 't': t.text.push_back('\t'); break;
          case 'r': t.text.push_back('\r'); break;
          case '0': t.text.push_back('\0'); break;
          case '\\': t.text.push_back('\\'); break;
          case '\'': t.text.push_back('\''); break;
          case '"': t.text.push_back('"'); break;
          default: throw SyntaxError("bad escape", line_);
        }
        continue;
      }
      t.text.push_back(c);
    }
    tokens_.push_back(std::move(t));
  }

  void lex_operator() {
    Token t;
    t.line = line_;
    const char c = advance();
    const char next = peek();
    switch (c) {
      case '(': t.type = TokenType::LParen; ++paren_depth_; break;
      case ')': t.type = TokenType::RParen; --paren_depth_; break;
      case '[': t.type = TokenType::LBracket; ++paren_depth_; break;
      case ']': t.type = TokenType::RBracket; --paren_depth_; break;
      case '{': t.type = TokenType::LBrace; ++paren_depth_; break;
      case '}': t.type = TokenType::RBrace; --paren_depth_; break;
      case ',': t.type = TokenType::Comma; break;
      case ':': t.type = TokenType::Colon; break;
      case '.': t.type = TokenType::Dot; break;
      case '+':
        if (next == '=') { ++pos_; t.type = TokenType::PlusAssign; }
        else t.type = TokenType::Plus;
        break;
      case '-':
        if (next == '=') { ++pos_; t.type = TokenType::MinusAssign; }
        else t.type = TokenType::Minus;
        break;
      case '*': t.type = TokenType::Star; break;
      case '/': t.type = TokenType::Slash; break;
      case '%': t.type = TokenType::Percent; break;
      case '=':
        if (next == '=') { ++pos_; t.type = TokenType::Eq; }
        else t.type = TokenType::Assign;
        break;
      case '!':
        if (next == '=') { ++pos_; t.type = TokenType::Ne; }
        else throw SyntaxError("unexpected '!'", line_);
        break;
      case '<':
        if (next == '=') { ++pos_; t.type = TokenType::Le; }
        else t.type = TokenType::Lt;
        break;
      case '>':
        if (next == '=') { ++pos_; t.type = TokenType::Ge; }
        else t.type = TokenType::Gt;
        break;
      case '\n':
        // Inside parentheses a newline is whitespace; lex_line handles the
        // paren_depth_ == 0 case before we get here.
        ++line_;
        t.type = TokenType::Newline;
        if (paren_depth_ > 0) return;
        break;
      default:
        throw SyntaxError(std::string("unexpected character '") + c + "'", line_);
    }
    tokens_.push_back(std::move(t));
  }

  const std::string& src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int paren_depth_ = 0;
  std::vector<int> indents_;
  std::vector<Token> tokens_;
};
}  // namespace

std::vector<Token> tokenize(const std::string& source) { return Lexer(source).run(); }

}  // namespace bento::script
