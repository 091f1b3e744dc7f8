// Pure (capability-free) standard library for BentoScript. Each builtin is
// bound through its row of kNatives, which fixes its argument counts.
#include <algorithm>

#include "script/interp.hpp"
#include "script/natives.hpp"

namespace bento::script {

void install_stdlib(Interpreter& interp) {
  const auto bind = [&interp](const NativeSig& row, NativeFn fn) {
    interp.bind(std::string(row.name), Value::native(row, std::move(fn)));
  };

  bind(native_row("", "len"), [](Interpreter&, std::vector<Value>& args) {
    const Value& v = args[0];
    if (v.is_str()) return Value::integer(static_cast<std::int64_t>(v.as_str().size()));
    if (v.is_bytes()) {
      return Value::integer(static_cast<std::int64_t>(v.as_bytes().size()));
    }
    if (v.is_list()) return Value::integer(static_cast<std::int64_t>(v.as_list().size()));
    if (v.is_dict()) return Value::integer(static_cast<std::int64_t>(v.as_dict().size()));
    throw TypeError(std::string("len() of ") + v.type_name());
  });

  bind(native_row("", "str"), [](Interpreter&, std::vector<Value>& args) {
    if (args[0].is_bytes()) {
      const util::Bytes& b = args[0].as_bytes();
      return Value::str(std::string(b.begin(), b.end()));
    }
    return Value::str(args[0].to_display());
  });

  bind(native_row("", "int"), [](Interpreter&, std::vector<Value>& args) {
    const Value& v = args[0];
    if (v.is_int() || v.is_bool()) return Value::integer(v.as_int());
    if (v.is_float()) return Value::integer(static_cast<std::int64_t>(v.as_float()));
    if (v.is_str()) {
      try {
        return Value::integer(std::stoll(v.as_str()));
      } catch (const std::exception&) {
        throw TypeError("int(): cannot parse '" + v.as_str() + "'");
      }
    }
    throw TypeError(std::string("int() of ") + v.type_name());
  });

  bind(native_row("", "float"), [](Interpreter&, std::vector<Value>& args) {
    const Value& v = args[0];
    if (v.is_str()) {
      try {
        return Value::real(std::stod(v.as_str()));
      } catch (const std::exception&) {
        throw TypeError("float(): cannot parse '" + v.as_str() + "'");
      }
    }
    return Value::real(v.as_float());
  });

  bind(native_row("", "bytes"), [](Interpreter&, std::vector<Value>& args) {
    const Value& v = args[0];
    if (v.is_bytes()) return v;
    if (v.is_str()) return Value::bytes(util::to_bytes(v.as_str()));
    if (v.is_int()) return Value::bytes(util::Bytes(static_cast<std::size_t>(v.as_int()), 0));
    if (v.is_list()) {
      util::Bytes out;
      for (const auto& item : v.as_list()) {
        const std::int64_t b = item.as_int();
        if (b < 0 || b > 255) throw TypeError("bytes(): value out of range");
        out.push_back(static_cast<std::uint8_t>(b));
      }
      return Value::bytes(std::move(out));
    }
    throw TypeError(std::string("bytes() of ") + v.type_name());
  });

  bind(native_row("", "range"), [](Interpreter&, std::vector<Value>& args) {
    // range(hi), range(lo, hi) or range(lo, hi, step).
    const bool hi_only = args.size() == 1;
    const std::int64_t lo = hi_only ? 0 : args[0].as_int();
    const std::int64_t hi = args[hi_only ? 0 : 1].as_int();
    const std::int64_t step = args.size() == 3 ? args[2].as_int() : 1;
    if (step == 0) throw TypeError("range() step cannot be 0");
    if ((hi - lo) * (step > 0 ? 1 : -1) > 10'000'000) {
      throw TypeError("range() too large");
    }
    List out;
    if (step > 0) {
      for (std::int64_t i = lo; i < hi; i += step) out.push_back(Value::integer(i));
    } else {
      for (std::int64_t i = lo; i > hi; i += step) out.push_back(Value::integer(i));
    }
    return Value::list(std::move(out));
  });

  bind(native_row("", "print"), [](Interpreter& in, std::vector<Value>& args) {
    std::string line;
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (i > 0) line += " ";
      line += args[i].to_display();
    }
    in.print(line);
    return Value::none();
  });

  // min(a, b, ...) or min(list), and max likewise.
  for (const bool is_max : {false, true}) {
    bind(is_max ? native_row("", "max") : native_row("", "min"),
         [is_max](Interpreter&, std::vector<Value>& args) {
           const std::vector<Value>* items = &args;
           if (args.size() == 1 && args[0].is_list()) items = &args[0].as_list();
           if (items->empty()) {
             throw TypeError(std::string(is_max ? "max" : "min") + "() of empty list");
           }
           Value best = (*items)[0];
           for (const auto& v : *items) {
             if (is_max ? v.as_float() > best.as_float() : v.as_float() < best.as_float()) {
               best = v;
             }
           }
           return best;
         });
  }

  bind(native_row("", "abs"), [](Interpreter&, std::vector<Value>& args) {
    if (args[0].is_int()) {
      const std::int64_t v = args[0].as_int();
      return Value::integer(v < 0 ? -v : v);
    }
    const double v = args[0].as_float();
    return Value::real(v < 0 ? -v : v);
  });

  // sub(x, start [, count]) — slice of a str/bytes/list (Python x[a:a+n]).
  bind(native_row("", "sub"), [](Interpreter&, std::vector<Value>& args) {
    const Value& v = args[0];
    // [from, to) of a sequence of `size` items, clamped to it.
    auto bounds = [&](std::size_t size) {
      const auto n = static_cast<std::int64_t>(size);
      std::int64_t start = args[1].as_int();
      if (start < 0) start += n;
      start = std::clamp<std::int64_t>(start, 0, n);
      const std::int64_t count =
          std::clamp<std::int64_t>(args.size() == 3 ? args[2].as_int() : n - start, 0, n - start);
      return std::pair<std::ptrdiff_t, std::ptrdiff_t>(start, start + count);
    };
    if (v.is_str()) {
      auto [from, to] = bounds(v.as_str().size());
      return Value::str(v.as_str().substr(static_cast<std::size_t>(from),
                                          static_cast<std::size_t>(to - from)));
    }
    if (v.is_bytes()) {
      const util::Bytes& b = v.as_bytes();
      auto [from, to] = bounds(b.size());
      return Value::bytes(util::Bytes(b.begin() + from, b.begin() + to));
    }
    if (v.is_list()) {
      const List& l = v.as_list();
      auto [from, to] = bounds(l.size());
      return Value::list(List(l.begin() + from, l.begin() + to));
    }
    throw TypeError(std::string("sub() of ") + v.type_name());
  });

  bind(native_row("", "sorted"), [](Interpreter&, std::vector<Value>& args) {
    List out = args[0].as_list();
    std::sort(out.begin(), out.end(), [](const Value& a, const Value& b) {
      if (a.is_str() && b.is_str()) return a.as_str() < b.as_str();
      return a.as_float() < b.as_float();
    });
    return Value::list(std::move(out));
  });
}

}  // namespace bento::script
