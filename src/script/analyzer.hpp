// BentoScript static verifier (load-time admission control).
//
// A single pass over a parsed Program that runs *before* the container ever
// executes the function:
//
//   * capability inference — every `Attr`/`Call`/`Name` node is walked to
//     compute which host modules (api, fs, net, os, time, zlib, bento) the
//     program can ever reach, mapped to the sandbox::Syscall each binding's
//     row of kNatives (natives.hpp) names. A bare reference to a module
//     (aliasing, passing it around) conservatively claims the whole module's
//     syscall set, so the inferred set is a sound over-approximation: if the
//     program can perform an effect at runtime, the effect's syscall is in it.
//   * lint diagnostics — structured {severity, line, code, message} records
//     for unknown names, use-before-definition, unknown module attributes,
//     arity mismatches against kNatives' rows (as the interpreter's) and user
//     `def`s, unreachable statements, constant-condition `while` loops, and
//     missing entry points.
//   * static cost — a per-statement lower bound on interpreter steps for
//     the load + on_install path, so trivially over-budget functions can be
//     refused against ResourceLimits without running them.
//
// The analyzer never executes script code and never throws on well-formed
// ASTs; everything it finds is reported through AnalysisResult.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sandbox/syscalls.hpp"
#include "script/ast.hpp"

namespace bento::script {

enum class Severity : std::uint8_t { Warning, Error };

const char* to_string(Severity s);

/// One lint finding. Codes are stable identifiers (see DESIGN.md):
///   BS101 unknown name                      (error)
///   BS102 use before definition             (error)
///   BS103 unknown module attribute          (error)
///   BS104 arity mismatch                    (error)
///   BS110 unreachable statement             (warning)
///   BS111 constant-condition while loop     (warning)
///   BS112 missing entry points              (warning)
struct Diagnostic {
  Severity severity = Severity::Warning;
  int line = 0;
  std::string code;
  std::string message;

  /// "line 7: error BS101: unknown name 'foo'"
  std::string to_string() const;
};

/// One inferred capability: the program can reach `module`.`attr` (attr
/// empty = the whole module escaped through an alias), which requires
/// `syscall`. `line` is the first reaching use.
struct CapabilityUse {
  sandbox::Syscall syscall = sandbox::Syscall::kCount;
  std::string capability;  // "fs.write", "net.get", "fs.*", ...
  int line = 0;
};

struct AnalysisResult {
  std::vector<Diagnostic> diagnostics;
  /// Host modules the program touches at all (including syscall-free ones
  /// like `api` and `zlib`).
  std::set<std::string> modules;
  /// Deduplicated by syscall; first use wins. Sorted by syscall.
  std::vector<CapabilityUse> required;
  /// Lower bound on interpreter steps for top-level load plus on_install.
  std::uint64_t min_steps = 0;

  bool has_errors() const;
  /// All inferred syscalls as a set (for manifest comparison).
  std::set<sandbox::Syscall> required_syscalls() const;
  /// First diagnostic at Error severity, or nullptr.
  const Diagnostic* first_error() const;
};

/// Analyzes a parsed program. Pure: no side effects, no exceptions for
/// any Program the parser can produce.
AnalysisResult analyze(const Program& program);

}  // namespace bento::script
