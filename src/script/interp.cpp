#include "script/interp.hpp"

#include <algorithm>

#include "script/natives.hpp"

namespace bento::script {

Interpreter::Interpreter(std::shared_ptr<const Program> program,
                         InterpreterOptions options)
    : program_(std::move(program)), options_(std::move(options)) {
  if (program_ == nullptr) throw std::invalid_argument("Interpreter: null program");
}

void Interpreter::bind(const std::string& name, Value value) {
  globals_[name] = std::move(value);
}

void Interpreter::run() {
  ran_ = true;
  Value ret;
  exec_block(program_->statements, &ret);
}

bool Interpreter::has_function(const std::string& name) const {
  auto it = globals_.find(name);
  return it != globals_.end() && it->second.is_callable();
}

Value Interpreter::call(const std::string& name, std::vector<Value> args) {
  if (!ran_) run();
  auto it = globals_.find(name);
  if (it == globals_.end() || !it->second.is_callable()) {
    throw ScriptError("undefined function: " + name, 0);
  }
  return call_value(it->second, std::move(args));
}

Value Interpreter::global(const std::string& name) const {
  auto it = globals_.find(name);
  return it == globals_.end() ? Value::none() : it->second;
}

namespace {
// The position `key` names in a sequence of `size` items; a negative key
// counts from the end.
std::size_t sequence_index(const Value& key, std::size_t size, const char* what, int line) {
  std::int64_t i = key.as_int();
  if (i < 0) i += static_cast<std::int64_t>(size);
  if (i < 0 || i >= static_cast<std::int64_t>(size)) {
    throw ScriptError(std::string(what) + " index out of range", line);
  }
  return static_cast<std::size_t>(i);
}

// Holds one level of eval_depth for as long as its eval/exec frame lives.
class NestingLevel {
 public:
  NestingLevel(int& depth, int line) : depth_(depth) {
    if (++depth_ > kMaxEvalDepth) {
      --depth_;
      throw ScriptError("nesting deeper than " + std::to_string(kMaxEvalDepth) +
                            " levels across calls",
                        line);
    }
  }
  ~NestingLevel() { --depth_; }
  NestingLevel(const NestingLevel&) = delete;
  NestingLevel& operator=(const NestingLevel&) = delete;

 private:
  int& depth_;
};
}  // namespace

void Interpreter::step(int line) {
  ++steps_;
  ++unreported_steps_;
  if (steps_ > options_.max_steps) {
    throw ScriptError("instruction budget exhausted", line);
  }
  if (unreported_steps_ >= 256) {
    if (options_.step_hook) options_.step_hook(unreported_steps_);
    unreported_steps_ = 0;
    maybe_check_memory();
  }
}

void Interpreter::maybe_check_memory() {
  if (!options_.memory_hook) return;
  std::size_t total = 0;
  for (const auto& [k, v] : globals_) total += k.size() + v.memory_estimate();
  for (const auto& frame : frames_) {
    for (const auto& [k, v] : frame) total += k.size() + v.memory_estimate();
  }
  options_.memory_hook(total);
}

Value* Interpreter::lookup(const std::string& name) {
  if (!frames_.empty()) {
    auto& frame = frames_.back();
    auto it = frame.find(name);
    if (it != frame.end()) return &it->second;
  }
  auto it = globals_.find(name);
  if (it != globals_.end()) return &it->second;
  return nullptr;
}

Value Interpreter::call_value(const Value& callable, std::vector<Value> args) {
  if (auto* native = std::get_if<std::shared_ptr<const Native>>(&callable.data)) {
    const Native& n = **native;
    if (n.sig != nullptr && !n.sig->admits(args.size())) {
      throw TypeError(n.sig->arity_message(args.size()));
    }
    return n.fn(*this, args);
  }
  if (auto* fn = std::get_if<ScriptFn>(&callable.data)) {
    const FunctionDef& def = *fn->def;
    if (args.size() != def.params.size()) {
      throw ScriptError(def.name + "() takes " + std::to_string(def.params.size()) +
                            " arguments, got " + std::to_string(args.size()),
                        def.line);
    }
    if (++call_depth_ > kMaxCallDepth) {
      --call_depth_;
      throw ScriptError("maximum recursion depth exceeded", def.line);
    }
    frames_.emplace_back();
    for (std::size_t i = 0; i < args.size(); ++i) {
      frames_.back()[def.params[i]] = std::move(args[i]);
    }
    Value ret;
    try {
      exec_block(def.body, &ret);
    } catch (...) {
      frames_.pop_back();
      --call_depth_;
      throw;
    }
    frames_.pop_back();
    --call_depth_;
    return ret;
  }
  throw ScriptError(std::string("not callable: ") + callable.type_name(), 0);
}

Interpreter::Flow Interpreter::exec_block(const std::vector<StmtPtr>& body,
                                          Value* ret) {
  for (const auto& stmt : body) {
    const Flow flow = exec(*stmt, ret);
    if (flow != Flow::Normal) return flow;
  }
  return Flow::Normal;
}

Interpreter::Flow Interpreter::exec(const Stmt& s, Value* ret) {
  const NestingLevel level(eval_depth_, s.line);
  step(s.line);
  switch (s.kind) {
    case StmtKind::ExprStmt:
      eval(*s.expr);
      return Flow::Normal;
    case StmtKind::Assign:
      assign(*s.target, eval(*s.expr));
      return Flow::Normal;
    case StmtKind::AugAssign: {
      // `x += e` costs what `x = x + e` costs, its Binary node's step too.
      step(s.line);
      const Value current = eval(*s.target);
      const Value delta = eval(*s.expr);
      assign(*s.target,
             binary_op(s.op == TokenType::PlusAssign ? TokenType::Plus : TokenType::Minus,
                       current, delta, s.line));
      return Flow::Normal;
    }
    case StmtKind::If: {
      if (eval(*s.expr).truthy()) return exec_block(s.body, ret);
      if (!s.orelse.empty()) return exec_block(s.orelse, ret);
      return Flow::Normal;
    }
    case StmtKind::While: {
      while (eval(*s.expr).truthy()) {
        step(s.line);
        const Flow flow = exec_block(s.body, ret);
        if (flow == Flow::Break) break;
        if (flow == Flow::Return) return flow;
      }
      return Flow::Normal;
    }
    case StmtKind::For: {
      Value iterable = eval(*s.target);
      Flow exit = Flow::Normal;
      // Runs the body for one item; false once a break or return leaves the loop.
      auto iterate = [&](const Value& item) {
        step(s.line);
        (frames_.empty() ? globals_ : frames_.back())[s.name] = item;
        const Flow flow = exec_block(s.body, ret);
        if (flow == Flow::Return) exit = flow;
        return flow != Flow::Break && flow != Flow::Return;
      };
      if (iterable.is_list()) {
        const List items = iterable.as_list();  // a copy tolerates mutation
        for (const Value& item : items) {
          if (!iterate(item)) break;
        }
      } else if (iterable.is_dict()) {
        std::vector<std::string> keys;
        for (const auto& [k, v] : iterable.as_dict()) keys.push_back(k);
        for (const auto& k : keys) {
          if (!iterate(Value::str(k))) break;
        }
      } else if (iterable.is_str()) {
        for (char c : iterable.as_str()) {
          if (!iterate(Value::str(std::string(1, c)))) break;
        }
      } else if (iterable.is_bytes()) {
        for (std::uint8_t b : iterable.as_bytes()) {
          if (!iterate(Value::integer(b))) break;
        }
      } else {
        throw ScriptError(std::string("cannot iterate over ") + iterable.type_name(),
                          s.line);
      }
      return exit;
    }
    case StmtKind::Def:
      // program_ owns every FunctionDef for the interpreter's lifetime.
      globals_[s.def->name] = Value{{ScriptFn{s.def.get()}}};
      return Flow::Normal;
    case StmtKind::Return:
      if (s.expr) *ret = eval(*s.expr);
      return Flow::Return;
    case StmtKind::Break:
      return Flow::Break;
    case StmtKind::Continue:
      return Flow::Continue;
    case StmtKind::Pass:
      return Flow::Normal;
  }
  return Flow::Normal;
}

void Interpreter::assign(const Expr& target, Value value) {
  switch (target.kind) {
    case ExprKind::Name: {
      if (!frames_.empty()) {
        frames_.back()[target.name] = std::move(value);
      } else {
        globals_[target.name] = std::move(value);
      }
      return;
    }
    case ExprKind::Index: {
      Value container = eval(*target.a);
      Value key = eval(*target.b);
      if (container.is_list()) {
        List& list = container.as_list();
        list[sequence_index(key, list.size(), "list", target.line)] = std::move(value);
        return;
      }
      if (container.is_dict()) {
        container.as_dict()[key.as_str()] = std::move(value);
        return;
      }
      throw ScriptError(std::string("cannot index-assign into ") +
                            container.type_name(),
                        target.line);
    }
    case ExprKind::Attr: {
      Value obj = eval(*target.a);
      if (obj.is_dict()) {
        obj.as_dict()[target.name] = std::move(value);
        return;
      }
      throw ScriptError("cannot set attribute on " + std::string(obj.type_name()),
                        target.line);
    }
    default:
      throw ScriptError("invalid assignment target", target.line);
  }
}

Value Interpreter::eval(const Expr& e) {
  const NestingLevel level(eval_depth_, e.line);
  step(e.line);
  switch (e.kind) {
    case ExprKind::Literal:
      return e.literal;
    case ExprKind::Name: {
      Value* v = lookup(e.name);
      if (v == nullptr) throw ScriptError("undefined name: " + e.name, e.line);
      return *v;
    }
    case ExprKind::ListLit: {
      List items;
      items.reserve(e.args.size());
      for (const auto& arg : e.args) items.push_back(eval(*arg));
      return Value::list(std::move(items));
    }
    case ExprKind::DictLit: {
      Dict dict;
      for (const auto& [k, v] : e.pairs) dict[eval(*k).as_str()] = eval(*v);
      return Value::dict(std::move(dict));
    }
    case ExprKind::Unary: {
      Value a = eval(*e.a);
      if (e.op == TokenType::KwNot) return Value::boolean(!a.truthy());
      if (a.is_int()) return Value::integer(-a.as_int());
      if (a.is_float()) return Value::real(-a.as_float());
      throw ScriptError(std::string("cannot negate ") + a.type_name(), e.line);
    }
    case ExprKind::Binary:
      return eval_binary(e);
    case ExprKind::Call:
      return eval_call(e);
    case ExprKind::Index: {
      Value container = eval(*e.a);
      Value key = eval(*e.b);
      if (container.is_list()) {
        const List& list = container.as_list();
        return list[sequence_index(key, list.size(), "list", e.line)];
      }
      if (container.is_dict()) {
        const Dict& dict = container.as_dict();
        auto it = dict.find(key.as_str());
        if (it == dict.end()) {
          throw ScriptError("key not found: " + key.as_str(), e.line);
        }
        return it->second;
      }
      if (container.is_bytes()) {
        const util::Bytes& b = container.as_bytes();
        return Value::integer(b[sequence_index(key, b.size(), "bytes", e.line)]);
      }
      if (container.is_str()) {
        const std::string& s = container.as_str();
        return Value::str(std::string(1, s[sequence_index(key, s.size(), "string", e.line)]));
      }
      throw ScriptError(std::string("cannot index ") + container.type_name(), e.line);
    }
    case ExprKind::Attr:
      return eval_attr(eval(*e.a), e.name, e.line);
  }
  throw ScriptError("internal: bad expression", e.line);
}

Value Interpreter::eval_call(const Expr& e) {
  Value callee = eval(*e.a);
  std::vector<Value> args;
  args.reserve(e.args.size());
  for (const auto& arg : e.args) args.push_back(eval(*arg));
  try {
    return call_value(callee, std::move(args));
  } catch (const TypeError& err) {
    throw ScriptError(err.what(), e.line);
  }
}

Value Interpreter::eval_binary(const Expr& e) {
  // Short-circuit logic first.
  if (e.op == TokenType::KwAnd) {
    Value a = eval(*e.a);
    if (!a.truthy()) return a;
    return eval(*e.b);
  }
  if (e.op == TokenType::KwOr) {
    Value a = eval(*e.a);
    if (a.truthy()) return a;
    return eval(*e.b);
  }

  const Value a = eval(*e.a);
  const Value b = eval(*e.b);
  return binary_op(e.op, a, b, e.line);
}

Value Interpreter::binary_op(TokenType op, const Value& a, const Value& b, int line) {
  auto numeric = [&](auto int_op, auto float_op) -> Value {
    if (a.is_float() || b.is_float()) return Value::real(float_op(a.as_float(), b.as_float()));
    return Value::integer(int_op(a.as_int(), b.as_int()));
  };

  switch (op) {
    case TokenType::Plus:
      if (a.is_str() && b.is_str()) return Value::str(a.as_str() + b.as_str());
      if (a.is_bytes() && b.is_bytes()) {
        util::Bytes out = a.as_bytes();
        util::append(out, b.as_bytes());
        return Value::bytes(std::move(out));
      }
      if (a.is_list() && b.is_list()) {
        List out = a.as_list();
        const List& more = b.as_list();
        out.insert(out.end(), more.begin(), more.end());
        return Value::list(std::move(out));
      }
      if ((a.is_int() || a.is_float() || a.is_bool()) &&
          (b.is_int() || b.is_float() || b.is_bool())) {
        return numeric([](auto x, auto y) { return x + y; },
                       [](auto x, auto y) { return x + y; });
      }
      throw ScriptError(std::string("cannot add ") + a.type_name() + " and " +
                            b.type_name(),
                        line);
    case TokenType::Minus:
      return numeric([](auto x, auto y) { return x - y; },
                     [](auto x, auto y) { return x - y; });
    case TokenType::Star:
      if (a.is_str() && b.is_int()) {
        std::string out;
        for (std::int64_t i = 0; i < b.as_int(); ++i) out += a.as_str();
        return Value::str(std::move(out));
      }
      return numeric([](auto x, auto y) { return x * y; },
                     [](auto x, auto y) { return x * y; });
    case TokenType::Slash: {
      if (a.is_float() || b.is_float()) {
        const double div = b.as_float();
        if (div == 0.0) throw ScriptError("division by zero", line);
        return Value::real(a.as_float() / div);
      }
      const std::int64_t div = b.as_int();
      if (div == 0) throw ScriptError("division by zero", line);
      // Floor division like Python's //.
      std::int64_t q = a.as_int() / div;
      if ((a.as_int() % div != 0) && ((a.as_int() < 0) != (div < 0))) --q;
      return Value::integer(q);
    }
    case TokenType::Percent: {
      const std::int64_t div = b.as_int();
      if (div == 0) throw ScriptError("modulo by zero", line);
      std::int64_t m = a.as_int() % div;
      if (m != 0 && ((m < 0) != (div < 0))) m += div;
      return Value::integer(m);
    }
    case TokenType::Eq:
      return Value::boolean(a.equals(b));
    case TokenType::Ne:
      return Value::boolean(!a.equals(b));
    case TokenType::Lt:
    case TokenType::Le:
    case TokenType::Gt:
    case TokenType::Ge: {
      int cmp;
      if (a.is_str() && b.is_str()) {
        cmp = a.as_str().compare(b.as_str());
      } else {
        const double x = a.as_float();
        const double y = b.as_float();
        cmp = x < y ? -1 : (x > y ? 1 : 0);
      }
      switch (op) {
        case TokenType::Lt: return Value::boolean(cmp < 0);
        case TokenType::Le: return Value::boolean(cmp <= 0);
        case TokenType::Gt: return Value::boolean(cmp > 0);
        default: return Value::boolean(cmp >= 0);
      }
    }
    case TokenType::KwIn: {
      if (b.is_dict()) return Value::boolean(b.as_dict().contains(a.as_str()));
      if (b.is_list()) {
        for (const auto& item : b.as_list()) {
          if (item.equals(a)) return Value::boolean(true);
        }
        return Value::boolean(false);
      }
      if (b.is_str()) {
        return Value::boolean(b.as_str().find(a.as_str()) != std::string::npos);
      }
      throw ScriptError(std::string("cannot test membership in ") + b.type_name(),
                        line);
    }
    default:
      throw ScriptError("internal: bad binary operator", line);
  }
}

Value Interpreter::eval_attr(const Value& obj, const std::string& name, int line) {
  // Module-style access: dicts expose entries as attributes.
  if (obj.is_dict()) {
    Dict& dict = obj.as_dict();
    auto it = dict.find(name);
    if (it != dict.end()) return it->second;
  }
  // Built-in methods on containers and strings: closures over obj, each
  // bound through its row of the natives table.
  using Args = std::vector<Value>;
  if (obj.is_list()) {
    if (name == "append") {
      return Value::native(native_row("list", "append"), [obj](Interpreter&, Args& args) {
        obj.as_list().push_back(args[0]);
        return Value::none();
      });
    }
    if (name == "pop") {
      return Value::native(native_row("list", "pop"), [obj](Interpreter&, Args& args) {
        List& list = obj.as_list();
        if (list.empty()) throw TypeError("pop from empty list");
        if (!args.empty()) {
          std::int64_t i = args[0].as_int();
          if (i < 0) i += static_cast<std::int64_t>(list.size());
          if (i < 0 || i >= static_cast<std::int64_t>(list.size())) {
            throw TypeError("pop index out of range");
          }
          Value out = list[static_cast<std::size_t>(i)];
          list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
          return out;
        }
        Value out = list.back();
        list.pop_back();
        return out;
      });
    }
  }
  if (obj.is_str()) {
    if (name == "split") {
      return Value::native(native_row("str", "split"), [obj](Interpreter&, Args& args) {
        const std::string sep = args.empty() ? " " : args[0].as_str();
        if (sep.empty()) throw TypeError("empty separator");
        List parts;
        const std::string& s = obj.as_str();
        std::size_t start = 0;
        while (true) {
          const std::size_t at = s.find(sep, start);
          if (at == std::string::npos) {
            parts.push_back(Value::str(s.substr(start)));
            break;
          }
          parts.push_back(Value::str(s.substr(start, at - start)));
          start = at + sep.size();
        }
        return Value::list(std::move(parts));
      });
    }
    if (name == "startswith") {
      return Value::native(native_row("str", "startswith"), [obj](Interpreter&, Args& args) {
        return Value::boolean(obj.as_str().rfind(args[0].as_str(), 0) == 0);
      });
    }
    if (name == "upper" || name == "lower") {
      const bool up = name == "upper";
      return Value::native(up ? native_row("str", "upper") : native_row("str", "lower"),
                           [obj, up](Interpreter&, Args&) {
        std::string s = obj.as_str();
        std::transform(s.begin(), s.end(), s.begin(), [up](unsigned char c) {
          return up ? std::toupper(c) : std::tolower(c);
        });
        return Value::str(std::move(s));
      });
    }
    if (name == "find") {
      return Value::native(native_row("str", "find"), [obj](Interpreter&, Args& args) {
        const auto at = obj.as_str().find(args[0].as_str());
        return Value::integer(at == std::string::npos ? -1
                                                      : static_cast<std::int64_t>(at));
      });
    }
  }
  if (obj.is_dict()) {
    if (name == "get") {
      return Value::native(native_row("dict", "get"), [obj](Interpreter&, Args& args) {
        const Dict& dict = obj.as_dict();
        auto it = dict.find(args[0].as_str());
        if (it != dict.end()) return it->second;
        return args.size() == 2 ? args[1] : Value::none();
      });
    }
    if (name == "keys") {
      return Value::native(native_row("dict", "keys"), [obj](Interpreter&, Args&) {
        List keys;
        for (const auto& [k, v] : obj.as_dict()) keys.push_back(Value::str(k));
        return Value::list(std::move(keys));
      });
    }
    if (name == "remove") {
      return Value::native(native_row("dict", "remove"), [obj](Interpreter&, Args& args) {
        return Value::boolean(obj.as_dict().erase(args[0].as_str()) > 0);
      });
    }
  }
  throw ScriptError(std::string(obj.type_name()) + " has no attribute '" + name + "'",
                    line);
}

}  // namespace bento::script
