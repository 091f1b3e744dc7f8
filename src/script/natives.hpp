// Every native a BentoScript function can call, declared once (DESIGN.md §6),
// with the argument counts it admits, the sandbox syscall it reaches and
// whether it can be called at all. The static verifier reads the rows (BS103,
// BS104, capability inference); each binding site names its native's row with
// native_row() while compiling; and the interpreter refuses a call the row
// does not admit before the native runs. So verifier and run time agree by
// construction. A native bound with plain Value::native(fn) runs unchecked.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "sandbox/syscalls.hpp"

namespace bento::script {

/// A global function, an attribute of a host module, or a value's method.
enum NativeKind : std::uint8_t { kBuiltin, kModule, kMethod };

/// max_args of a native that takes any number of arguments from min_args on.
inline constexpr int kVariadic = -1;

struct NativeSig {
  constexpr NativeSig(NativeKind kind, std::string_view owner, std::string_view name,
                      int min_args, int max_args,
                      std::optional<sandbox::Syscall> syscall = std::nullopt,
                      bool callable = true)
      : kind(kind), owner(owner), name(name), min_args(min_args), max_args(max_args),
        syscall(syscall), callable(callable) {}

  NativeKind kind;
  std::string_view owner;  // "" for a builtin; the module; the method's value type
  std::string_view name;
  int min_args;
  int max_args;  // or kVariadic
  std::optional<sandbox::Syscall> syscall;  // the HostApi check the native reaches
  bool callable;                            // false: a plain attribute (bento.self)

  constexpr bool admits(std::size_t argc) const {
    return argc >= static_cast<std::size_t>(min_args) &&
           (max_args == kVariadic || argc <= static_cast<std::size_t>(max_args));
  }
  /// "len", "fs.write", "str.upper".
  std::string qualified_name() const {
    return owner.empty() ? std::string(name) : std::string(owner) + "." + std::string(name);
  }
  /// "fs.write takes 2 argument(s), got 1": BS104's message, and the error a
  /// call the row refuses raises at run time.
  std::string arity_message(std::size_t argc) const {
    const std::string expected = max_args == kVariadic ? "at least " + std::to_string(min_args)
                                 : min_args == max_args ? std::to_string(min_args)
                                 : std::to_string(min_args) + "-" + std::to_string(max_args);
    return qualified_name() + " takes " + expected + " argument(s), got " +
           std::to_string(argc);
  }
};

inline constexpr NativeSig kNatives[] = {
    // Builtins, bound by install_stdlib.
    {kBuiltin, "", "len", 1, 1},             {kBuiltin, "", "str", 1, 1},
    {kBuiltin, "", "int", 1, 1},             {kBuiltin, "", "float", 1, 1},
    {kBuiltin, "", "bytes", 1, 1},           {kBuiltin, "", "range", 1, 3},
    {kBuiltin, "", "print", 0, kVariadic},   {kBuiltin, "", "min", 1, kVariadic},
    {kBuiltin, "", "max", 1, kVariadic},     {kBuiltin, "", "abs", 1, 1},
    {kBuiltin, "", "sub", 2, 3},             {kBuiltin, "", "sorted", 1, 1},
    // Host modules, bound by ScriptFunction::bind_modules over HostApi.
    {kModule, "api", "send", 1, 1},          {kModule, "api", "handle", 0, 0},
    {kModule, "api", "send_to", 2, 2},       {kModule, "api", "log", 0, kVariadic},
    {kModule, "fs", "write", 2, 2, sandbox::Syscall::FsWrite},
    {kModule, "fs", "read", 1, 1, sandbox::Syscall::FsRead},
    {kModule, "fs", "delete", 1, 1, sandbox::Syscall::FsDelete},
    {kModule, "fs", "list", 0, 0, sandbox::Syscall::FsRead},
    {kModule, "net", "get", 2, 2, sandbox::Syscall::NetConnect},
    {kModule, "os", "urandom", 1, 1, sandbox::Syscall::Random},
    {kModule, "time", "now", 0, 0, sandbox::Syscall::Clock},
    {kModule, "time", "after", 2, 2, sandbox::Syscall::Clock},
    {kModule, "zlib", "compress", 1, 1},     {kModule, "zlib", "decompress", 1, 1},
    {kModule, "bento", "self", 0, 0, std::nullopt, /*callable=*/false},
    {kModule, "bento", "deploy", 6, 6, sandbox::Syscall::SpawnFunction},
    {kModule, "bento", "invoke", 4, 4, sandbox::Syscall::SpawnFunction},
    // Methods, bound by Interpreter::eval_attr.
    {kMethod, "list", "append", 1, 1},       {kMethod, "list", "pop", 0, 1},
    {kMethod, "str", "split", 0, 1},         {kMethod, "str", "startswith", 1, 1},
    {kMethod, "str", "upper", 0, 0},         {kMethod, "str", "lower", 0, 0},
    {kMethod, "str", "find", 1, 1},          {kMethod, "dict", "get", 1, 2},
    {kMethod, "dict", "keys", 0, 0},         {kMethod, "dict", "remove", 1, 1},
};

/// The row of `owner`.`name`, or nullptr.
constexpr const NativeSig* find_native(std::string_view owner, std::string_view name) {
  for (const NativeSig& row : kNatives) {
    if (row.owner == owner && row.name == name) return &row;
  }
  return nullptr;
}

/// The row a binding site binds its native through; a native without one does
/// not build. No find_native here: sanitizer builds cannot null-test &kNatives[i].
consteval const NativeSig& native_row(std::string_view owner, std::string_view name) {
  for (const NativeSig& row : kNatives) {
    if (row.owner == owner && row.name == name) return row;
  }
  throw "kNatives has no row for this native";
}

}  // namespace bento::script
