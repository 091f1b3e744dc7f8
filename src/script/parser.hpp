// BentoScript recursive-descent parser: tokens -> Program.
#pragma once

#include <memory>
#include <string>

#include "script/ast.hpp"
#include "script/lexer.hpp"

namespace bento::script {

/// Deepest program tree the parser accepts, counting statements, nested
/// blocks and expressions alike. A walk over a parsed Program (analyzer,
/// interpreter, destructor) recurses at most this deep, whatever the source;
/// the interpreter's script-level calls stack such walks up to its
/// max_call_depth.
inline constexpr int kMaxDepth = 256;

/// Parses a full program. Throws SyntaxError on malformed input, including
/// a tree or a nesting of brackets deeper than kMaxDepth.
std::unique_ptr<Program> parse(const std::string& source);

}  // namespace bento::script
