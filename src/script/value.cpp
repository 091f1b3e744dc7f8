#include "script/value.hpp"

#include <sstream>

namespace bento::script {

Value Value::bytes(util::Bytes b) {
  Value v;
  v.data = std::make_shared<const util::Bytes>(std::move(b));
  return v;
}

Value Value::list(List items) {
  Value v;
  v.data = std::make_shared<List>(std::move(items));
  return v;
}

Value Value::dict(Dict items) {
  Value v;
  v.data = std::make_shared<Dict>(std::move(items));
  return v;
}

Value Value::native(NativeFn fn) {
  return Value{{std::make_shared<const Native>(Native{std::move(fn)})}};
}

Value Value::native(const NativeSig& sig, NativeFn fn) {
  return Value{{std::make_shared<const Native>(Native{std::move(fn), &sig})}};
}

namespace {
[[noreturn]] void type_fail(const char* want, const Value& v) {
  throw TypeError(std::string("expected ") + want + ", got " + v.type_name());
}
}  // namespace

bool Value::as_bool() const {
  if (auto* b = std::get_if<bool>(&data)) return *b;
  type_fail("bool", *this);
}

std::int64_t Value::as_int() const {
  if (auto* i = std::get_if<std::int64_t>(&data)) return *i;
  if (auto* b = std::get_if<bool>(&data)) return *b ? 1 : 0;
  type_fail("int", *this);
}

double Value::as_float() const {
  if (auto* d = std::get_if<double>(&data)) return *d;
  if (auto* i = std::get_if<std::int64_t>(&data)) return static_cast<double>(*i);
  type_fail("float", *this);
}

const std::string& Value::as_str() const {
  if (auto* s = std::get_if<std::string>(&data)) return *s;
  type_fail("str", *this);
}

const util::Bytes& Value::as_bytes() const {
  if (auto* b = std::get_if<SharedBytes>(&data)) return **b;
  type_fail("bytes", *this);
}

List& Value::as_list() const {
  if (auto* l = std::get_if<std::shared_ptr<List>>(&data)) return **l;
  type_fail("list", *this);
}

Dict& Value::as_dict() const {
  if (auto* d = std::get_if<std::shared_ptr<Dict>>(&data)) return **d;
  type_fail("dict", *this);
}

bool Value::truthy() const {
  if (is_none()) return false;
  if (auto* b = std::get_if<bool>(&data)) return *b;
  if (auto* i = std::get_if<std::int64_t>(&data)) return *i != 0;
  if (auto* d = std::get_if<double>(&data)) return *d != 0.0;
  if (auto* s = std::get_if<std::string>(&data)) return !s->empty();
  if (auto* by = std::get_if<SharedBytes>(&data)) return !(*by)->empty();
  if (is_list()) return !as_list().empty();
  if (is_dict()) return !as_dict().empty();
  return true;  // callables
}

bool Value::equals(const Value& other) const {
  if (is_none() || other.is_none()) return is_none() && other.is_none();
  // Numeric cross-type comparison.
  const bool self_num = is_int() || is_float() || is_bool();
  const bool other_num = other.is_int() || other.is_float() || other.is_bool();
  if (self_num && other_num) {
    if (is_float() || other.is_float()) return as_float() == other.as_float();
    return as_int() == other.as_int();
  }
  if (is_str() && other.is_str()) return as_str() == other.as_str();
  if (is_bytes() && other.is_bytes()) return as_bytes() == other.as_bytes();
  if (is_list() && other.is_list()) {
    const List& a = as_list();
    const List& b = other.as_list();
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!a[i].equals(b[i])) return false;
    }
    return true;
  }
  if (is_dict() && other.is_dict()) {
    const Dict& a = as_dict();
    const Dict& b = other.as_dict();
    if (a.size() != b.size()) return false;
    for (const auto& [k, v] : a) {
      auto it = b.find(k);
      if (it == b.end() || !v.equals(it->second)) return false;
    }
    return true;
  }
  return false;
}

std::string Value::to_display() const {
  std::ostringstream out;
  if (is_none()) {
    out << "None";
  } else if (auto* b = std::get_if<bool>(&data)) {
    out << (*b ? "True" : "False");
  } else if (auto* i = std::get_if<std::int64_t>(&data)) {
    out << *i;
  } else if (auto* d = std::get_if<double>(&data)) {
    out << *d;
  } else if (auto* s = std::get_if<std::string>(&data)) {
    out << *s;
  } else if (auto* by = std::get_if<SharedBytes>(&data)) {
    out << "b'" << util::to_hex(**by) << "'";
  } else if (is_list()) {
    out << "[";
    const List& l = as_list();
    for (std::size_t i = 0; i < l.size(); ++i) {
      if (i > 0) out << ", ";
      out << l[i].to_display();
    }
    out << "]";
  } else if (is_dict()) {
    out << "{";
    bool first = true;
    for (const auto& [k, v] : as_dict()) {
      if (!first) out << ", ";
      first = false;
      out << k << ": " << v.to_display();
    }
    out << "}";
  } else {
    out << "<function>";
  }
  return out.str();
}

const char* Value::type_name() const {
  if (is_none()) return "None";
  if (is_bool()) return "bool";
  if (is_int()) return "int";
  if (is_float()) return "float";
  if (is_str()) return "str";
  if (is_bytes()) return "bytes";
  if (is_list()) return "list";
  if (is_dict()) return "dict";
  return "function";
}

std::size_t Value::memory_estimate() const {
  std::size_t base = sizeof(Value);
  if (auto* s = std::get_if<std::string>(&data)) return base + s->size();
  if (auto* b = std::get_if<SharedBytes>(&data)) return base + (*b)->size();
  if (is_list()) {
    std::size_t total = base;
    for (const auto& v : as_list()) total += v.memory_estimate();
    return total;
  }
  if (is_dict()) {
    std::size_t total = base;
    for (const auto& [k, v] : as_dict()) total += k.size() + v.memory_estimate();
    return total;
  }
  return base;
}

}  // namespace bento::script
