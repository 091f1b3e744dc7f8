// BentoScript runtime values.
//
// A small dynamic type system: None, bool, int, float, str, bytes, list,
// dict, and callables (native or script-defined). Lists and dicts have
// reference semantics (shared_ptr), like Python. A bytes value is immutable
// and shared, as in Python: reading a name, passing an argument or storing
// it in a container shares one buffer, and every operation that "changes"
// bytes (concatenation, slicing) builds a new one.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "util/bytes.hpp"

namespace bento::script {

class Interpreter;
struct Value;

using List = std::vector<Value>;
using Dict = std::map<std::string, Value>;
using NativeFn = std::function<Value(Interpreter&, std::vector<Value>&)>;
using SharedBytes = std::shared_ptr<const util::Bytes>;

struct FunctionDef;  // AST node, defined in ast.hpp
struct NativeSig;    // a row of the natives table, natives.hpp

/// A host function a script can call. The interpreter checks each call's
/// argument count against `sig`, the row it was bound through, if any.
struct Native {
  NativeFn fn;
  const NativeSig* sig = nullptr;
};

/// Script-level callable (a `def`), closed over the global scope only.
struct ScriptFn {
  const FunctionDef* def = nullptr;
};

class TypeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Value {
  std::variant<std::monostate, bool, std::int64_t, double, std::string,
               SharedBytes, std::shared_ptr<List>, std::shared_ptr<Dict>,
               std::shared_ptr<const Native>, ScriptFn>
      data;

  // Aggregate (no user-declared constructors) so Value{{x}} works.
  static Value none() { return Value{}; }
  static Value boolean(bool b) { return Value{{b}}; }
  static Value integer(std::int64_t i) { return Value{{i}}; }
  static Value real(double d) { return Value{{d}}; }
  static Value str(std::string s) { return Value{{std::move(s)}}; }
  /// Takes `b` over as one shared, immutable buffer.
  static Value bytes(util::Bytes b);
  static Value list(List items = {});
  static Value dict(Dict items = {});
  static Value native(NativeFn fn);
  static Value native(const NativeSig& sig, NativeFn fn);

  bool is_none() const { return std::holds_alternative<std::monostate>(data); }
  bool is_bool() const { return std::holds_alternative<bool>(data); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(data); }
  bool is_float() const { return std::holds_alternative<double>(data); }
  bool is_str() const { return std::holds_alternative<std::string>(data); }
  bool is_bytes() const { return std::holds_alternative<SharedBytes>(data); }
  bool is_list() const { return std::holds_alternative<std::shared_ptr<List>>(data); }
  bool is_dict() const { return std::holds_alternative<std::shared_ptr<Dict>>(data); }
  bool is_callable() const {
    return std::holds_alternative<std::shared_ptr<const Native>>(data) ||
           std::holds_alternative<ScriptFn>(data);
  }

  /// Typed accessors; throw TypeError with a readable message on mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;
  double as_float() const;       // accepts int too
  const std::string& as_str() const;
  const util::Bytes& as_bytes() const;
  List& as_list() const;
  Dict& as_dict() const;

  /// Python-style truthiness.
  bool truthy() const;

  /// Structural equality (None==None, numeric cross-type, deep containers).
  bool equals(const Value& other) const;

  /// repr-ish rendering for print()/errors.
  std::string to_display() const;
  /// Type name for diagnostics ("int", "list", ...).
  const char* type_name() const;

  /// Rough heap footprint, for sandbox memory accounting. Every reference
  /// to a shared bytes buffer is charged its full size, as if it were a
  /// copy, so sharing never moves where a memory limit trips.
  std::size_t memory_estimate() const;
};

}  // namespace bento::script
