// BentoScript tree-walking interpreter.
//
// Deliberately capability-less: the language core can compute, but every
// effect (network, filesystem, Tor control, randomness, clock) enters only
// through host-provided bindings. The Bento container decides which
// bindings to install based on manifest ∩ node policy, which is how the
// sandbox's seccomp analogue reaches the language. Instruction and memory
// hooks let the container charge the function's ResourceAccountant.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "script/ast.hpp"
#include "script/parser.hpp"
#include "script/value.hpp"

namespace bento::script {

/// Raised for runtime errors in the script (wrong types, undefined names,
/// arity mismatches, explicit budget exhaustion...).
class ScriptError : public std::runtime_error {
 public:
  ScriptError(const std::string& message, int line)
      : std::runtime_error("line " + std::to_string(line) + ": " + message),
        line(line) {}
  int line;
};

/// Bound on nested calls of script functions.
inline constexpr int kMaxCallDepth = 64;

/// Bound on eval/exec nesting summed over every active call. The parser caps
/// one tree's depth (kMaxDepth) and kMaxCallDepth caps calls, but their
/// product would let an upload claim megabytes of C++ stack. One level costs
/// at most 3.7 KB of stack in a Debug ASan build (an eval frame plus its
/// eval_binary, the largest pair; 0.6 KB at RelWithDebInfo), so the bound
/// keeps a script under 4 MB of the 8 MB main-thread stack. The deepest
/// legitimate use is a kMaxDepth tree at top level, or kMaxCallDepth calls
/// of library-sized bodies (depth <= 10).
inline constexpr int kMaxEvalDepth = 1024;

struct InterpreterOptions {
  /// Hard internal cap; the step hook may impose a tighter budget.
  std::uint64_t max_steps = 100'000'000;
  /// Called in batches with the number of steps executed since last call.
  std::function<void(std::uint64_t steps)> step_hook;
  /// Called periodically with the interpreter's estimated heap usage.
  std::function<void(std::size_t bytes)> memory_hook;
  /// print() sink; defaults to discarding.
  std::function<void(const std::string&)> print_hook;
};

class Interpreter {
 public:
  /// The interpreter shares the parsed program (functions may outlive one
  /// call; the container reuses the image across invocations).
  Interpreter(std::shared_ptr<const Program> program, InterpreterOptions options = {});

  /// Installs a global binding (modules like `api`, `fs` are dicts of
  /// native functions).
  void bind(const std::string& name, Value value);

  /// Executes all top-level statements (function defs + init code).
  void run();

  /// True if a top-level `def name(...)` exists (after run()).
  bool has_function(const std::string& name) const;

  /// Calls a global function by name. Throws ScriptError if undefined.
  Value call(const std::string& name, std::vector<Value> args);

  /// Calls any callable value (used by builtins receiving callbacks).
  Value call_value(const Value& callable, std::vector<Value> args);

  std::uint64_t steps() const { return steps_; }
  /// Global variable access (tests / host inspection).
  Value global(const std::string& name) const;
  const std::map<std::string, Value>& globals() const { return globals_; }

  /// print() sink used by the stdlib.
  void print(const std::string& line) {
    if (options_.print_hook) options_.print_hook(line);
  }

 private:
  enum class Flow { Normal, Break, Continue, Return };

  void step(int line);
  Value eval(const Expr& e);
  Value eval_binary(const Expr& e);
  /// The arithmetic, comparison and membership operators: `a op b` for both
  /// `x = x op e` and `x op= e`.
  static Value binary_op(TokenType op, const Value& a, const Value& b, int line);
  Value eval_call(const Expr& e);
  Value eval_attr(const Value& obj, const std::string& name, int line);
  Flow exec(const Stmt& s, Value* ret);
  Flow exec_block(const std::vector<StmtPtr>& body, Value* ret);
  void assign(const Expr& target, Value value);
  Value* lookup(const std::string& name);
  void maybe_check_memory();

  std::shared_ptr<const Program> program_;
  InterpreterOptions options_;
  std::map<std::string, Value> globals_;
  std::vector<std::map<std::string, Value>> frames_;
  std::uint64_t steps_ = 0;
  std::uint64_t unreported_steps_ = 0;
  int call_depth_ = 0;
  int eval_depth_ = 0;  // eval/exec frames live, across calls
  bool ran_ = false;
};

/// Installs the pure standard library: the kBuiltin rows of kNatives
/// (natives.hpp).
void install_stdlib(Interpreter& interp);

}  // namespace bento::script
