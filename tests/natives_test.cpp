// The natives table (script/natives.hpp): every builtin, host-module
// attribute and value method a BentoScript function can call. The static
// verifier and the interpreter read the same rows, so a call the verifier
// reports as BS104 also fails when it runs.
#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "core/container.hpp"
#include "script/analyzer.hpp"
#include "script/natives.hpp"
#include "script/parser.hpp"

namespace bc = bento::core;
namespace bu = bento::util;
namespace sc = bento::script;

namespace {

/// A HostApi whose effects all do nothing, so a call can only fail on the
/// interpreter's own checks or the native's argument types.
class StubHost final : public bc::HostApi {
 public:
  void send(bu::ByteView) override {}
  std::uint64_t reply_handle() override { return 0; }
  void send_to(std::uint64_t, bu::ByteView) override {}
  void log(const std::string&) override {}
  void fs_write(const std::string&, bu::ByteView) override {}
  std::optional<bu::Bytes> fs_read(const std::string&) override { return std::nullopt; }
  bool fs_remove(const std::string&) override { return false; }
  std::vector<std::string> fs_list() override { return {}; }
  void http_get(const std::string&, HttpCallback) override {}
  bu::Time now() override { return bu::Time{}; }
  void after(bu::Duration, std::function<void()>) override {}
  bu::Bytes random_bytes(std::size_t n) override { return bu::Bytes(n, 0); }
  void deploy(const DeploySpec&, DeployCallback) override {}
  void invoke_remote(const std::string&, bu::ByteView, bu::ByteView,
                     std::function<void(bu::Bytes)>) override {}
  bc::StemSession& stem() override { throw std::logic_error("no Stem in the stub"); }
  std::string box_fingerprint() const override { return "stub"; }
};

/// Installs `source` as a ScriptFunction on a StubHost (bind every module,
/// run the top level) and returns the ScriptError it raised, or "".
std::string install_error(const std::string& source) {
  StubHost host;
  bc::ScriptFunction fn(source, sc::InterpreterOptions{});
  try {
    fn.on_install(host, {});
  } catch (const sc::ScriptError& e) {
    return e.what();
  }
  return "";
}

bool has_bs104(const std::string& source) {
  for (const auto& d : sc::analyze(*sc::parse(source)).diagnostics) {
    if (d.code == "BS104") return true;
  }
  return false;
}

/// A value a method row applies to.
std::string receiver(std::string_view type) {
  if (type == "list") return "[1]";
  if (type == "str") return "\"a\"";
  return "{}";
}

/// `x = <row's native>(1, 1, ...)` with `argc` arguments.
std::string call(const sc::NativeSig& row, int argc) {
  std::string source = "x = ";
  source += row.kind == sc::kMethod
                ? receiver(row.owner) + "." + std::string(row.name)
                : row.qualified_name();
  source += "(";
  for (int i = 0; i < argc; ++i) source += i == 0 ? "1" : ", 1";
  return source + ")\n";
}

}  // namespace

TEST(Natives, CallsTheVerifierRefusesFailAtRunTime) {
  for (const char* source : {"fs.list(1)\n", "time.now(1)\n", "api.handle(1)\n"}) {
    EXPECT_TRUE(has_bs104(source)) << source;
    EXPECT_NE(install_error(source), "") << source;
  }
  // Methods: the verifier cannot know a value's type, the run time does.
  for (const char* source : {"x = \"a\".upper(1)\n", "x = {}.keys(1)\n"}) {
    EXPECT_NE(install_error(source), "") << source;
  }
}

// One argument too few and one too many raise the row's own arity error at
// run time, and BS104 from the verifier for builtins and host attributes;
// the counts the row admits pass both checks.
TEST(Natives, EveryRowRefusesCountsOutsideItsRange) {
  for (const sc::NativeSig& row : sc::kNatives) {
    const bool verified = row.kind != sc::kMethod;
    if (!row.callable) {
      EXPECT_NE(install_error(call(row, 0)), "") << row.qualified_name();
      EXPECT_TRUE(has_bs104(call(row, 0))) << row.qualified_name();
      continue;
    }
    std::vector<int> refused;
    if (row.min_args > 0) refused.push_back(row.min_args - 1);
    if (row.max_args != sc::kVariadic) refused.push_back(row.max_args + 1);
    for (int argc : refused) {
      const std::string source = call(row, argc);
      EXPECT_NE(install_error(source).find(row.arity_message(argc)), std::string::npos)
          << source;
      if (verified) {
        EXPECT_TRUE(has_bs104(source)) << source;
      }
    }
    const int most = row.max_args == sc::kVariadic ? row.min_args + 2 : row.max_args;
    for (int argc : {row.min_args, most}) {
      const std::string source = call(row, argc);
      EXPECT_EQ(install_error(source).find(" argument(s), got "), std::string::npos)
          << source;
      if (verified) {
        EXPECT_FALSE(has_bs104(source)) << source;
      }
    }
  }
}

// After install every row is bound and nothing is bound without a row.
// (EveryRowRefusesCountsOutsideItsRange shows each native checks its own.)
TEST(Natives, EveryRowIsBoundAndEveryBindingHasARow) {
  std::set<const sc::NativeSig*> bound;
  StubHost host;
  bc::ScriptFunction fn("x = 1\n", sc::InterpreterOptions{});
  fn.on_install(host, {});
  for (const auto& [name, value] : fn.interpreter().globals()) {
    if (value.is_callable()) {
      const sc::NativeSig* row = sc::find_native("", name);
      ASSERT_NE(row, nullptr) << "builtin " << name << " has no row";
      bound.insert(row);
    } else if (value.is_dict()) {
      for (const auto& [attr, member] : value.as_dict()) {
        const sc::NativeSig* row = sc::find_native(name, attr);
        ASSERT_NE(row, nullptr) << name << "." << attr << " has no row";
        EXPECT_EQ(row->kind, sc::kModule) << name << "." << attr;
        EXPECT_EQ(member.is_callable(), row->callable) << name << "." << attr;
        bound.insert(row);
      }
    }
  }
  for (const sc::NativeSig& row : sc::kNatives) {
    EXPECT_EQ(sc::find_native(row.owner, row.name), &row) << "duplicate " << row.qualified_name();
    if (row.kind != sc::kMethod) continue;
    sc::Interpreter interp(
        sc::parse("m = " + receiver(row.owner) + "." + std::string(row.name) + "\n"));
    interp.run();
    EXPECT_TRUE(interp.global("m").is_callable()) << row.qualified_name();
    bound.insert(&row);
  }
  EXPECT_EQ(bound.size(), std::size(sc::kNatives));
}
