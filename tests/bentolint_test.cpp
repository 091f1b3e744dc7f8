// Golden-diagnostic tests for the bentolint rule engine (DESIGN.md §10).
//
// Each fixture in tests/lint_fixtures/ marks the lines that must fire with
// a trailing `expect(BLxxx)` comment; the harness analyzes the fixture under
// a *virtual* repo path (the path decides which rules apply — src/ turns on
// BL101 and BL105 everywhere) and asserts the diagnostic set equals the
// marker set exactly: positives fire, suppressed and clean sections stay
// silent.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bentolint/analyzer.hpp"

namespace bl = bento::lint;

namespace {

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(BENTO_LINT_FIXTURES) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string read_repo_source(const std::string& rel) {
  const std::string path = std::string(BENTO_LINT_REPO_ROOT) + "/" + rel;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing source " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// "BL104@17" — rule plus line, the unit both sides of the comparison use.
std::vector<std::string> markers_of(const std::string& src) {
  std::vector<std::string> out;
  int line = 1;
  std::size_t start = 0;
  while (start <= src.size()) {
    std::size_t end = src.find('\n', start);
    if (end == std::string::npos) end = src.size();
    const std::string text = src.substr(start, end - start);
    std::size_t pos = 0;
    while ((pos = text.find("expect(BL", pos)) != std::string::npos) {
      const std::size_t rule_start = pos + std::string("expect(").size();
      const std::size_t close = text.find(')', rule_start);
      if (close != std::string::npos) {
        out.push_back(text.substr(rule_start, close - rule_start) + "@" +
                      std::to_string(line));
      }
      pos = rule_start;
    }
    start = end + 1;
    ++line;
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> fired(const std::vector<bl::Diagnostic>& diags) {
  std::vector<std::string> out;
  for (const bl::Diagnostic& d : diags) {
    out.push_back(d.rule + "@" + std::to_string(d.line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string join(const std::vector<std::string>& v) {
  std::string out;
  for (const std::string& s : v) {
    if (!out.empty()) out += ", ";
    out += s;
  }
  return out.empty() ? "(none)" : out;
}

// The golden check: diagnostics == markers, nothing more, nothing less.
void check_fixture(const std::string& name, const std::string& virtual_path) {
  const std::string src = read_fixture(name);
  ASSERT_FALSE(src.empty());
  const auto diags = bl::analyze_source(virtual_path, src);
  EXPECT_EQ(join(fired(diags)), join(markers_of(src)))
      << name << " analyzed as " << virtual_path;
}

}  // namespace

TEST(BentoLint, BL100SuppressionNeedsRuleAndReason) {
  check_fixture("bl100_bare_allow.cpp", "src/fixture.cpp");
}

TEST(BentoLint, BL101WallClockInDeterministicTree) {
  check_fixture("bl101_wallclock.cpp", "src/sim/fixture.cpp");
}

TEST(BentoLint, BL101AnnotationGatesToolsScope) {
  check_fixture("bl101_det_annotation.cpp", "tools/fixture.cpp");
}

TEST(BentoLint, BL102HotPathAllocations) {
  check_fixture("bl102_hot_alloc.cpp", "src/crypto/fixture.cpp");
}

TEST(BentoLint, BL103SharedSelfCapture) {
  check_fixture("bl103_self_capture.cpp", "src/core/fixture.cpp");
}

TEST(BentoLint, BL104UnorderedIterationIntoTrace) {
  check_fixture("bl104_unordered_trace.cpp", "src/obs/fixture.cpp");
}

TEST(BentoLint, BL105BansConcurrencyInSrc) {
  check_fixture("bl105_concurrency.cpp", "src/sim/fixture.cpp");
  check_fixture("bl105_concurrency.cpp", "src/tor/fixture.cpp");
}

TEST(BentoLint, BL105SilentOutsideSrc) {
  // Same bytes, different tree position: tools and benchmarks may time or
  // tally from other threads.
  const std::string src = read_fixture("bl105_concurrency.cpp");
  EXPECT_TRUE(bl::analyze_source("tools/fixture.cpp", src).empty());
  EXPECT_TRUE(bl::analyze_source("bench/fixture.cpp", src).empty());
}

TEST(BentoLint, BL106BannedCStringFunctions) {
  check_fixture("bl106_banned.cpp", "tools/fixture.cpp");
}

TEST(BentoLint, BL107HeaderPragmaOnce) {
  check_fixture("bl107_missing_pragma.hpp", "src/util/fixture.hpp");
  check_fixture("bl107_allowed.hpp", "src/util/fixture.hpp");
  check_fixture("bl107_clean.hpp", "src/util/fixture.hpp");
  // A .cpp without #pragma once is fine — the rule is header-only.
  EXPECT_TRUE(
      bl::analyze_source("src/x.cpp", "int main() { return 0; }\n").empty());
}

TEST(BentoLint, BL108IncludeHygiene) {
  check_fixture("bl108_includes.cpp", "src/fixture.cpp");
}

TEST(BentoLint, BL109StoreFramingInvariant) {
  check_fixture("bl109_framing.cpp", "src/store/fixture.cpp");
}

TEST(BentoLint, BL109SilentOutsideStore) {
  // Same bytes, different tree position: the framing invariant only binds
  // the store subsystem, where write_frame is the durable-commit primitive.
  const std::string src = read_fixture("bl109_framing.cpp");
  EXPECT_TRUE(bl::analyze_source("src/core/fixture.cpp", src).empty());
  EXPECT_TRUE(bl::analyze_source("tools/fixture.cpp", src).empty());
}

TEST(BentoLint, BL109RealStoreLogIsClean) {
  // The shipped store log is the reason the rule exists: its append path
  // must lint clean, and stripping the crc32 computation out of the framed
  // append must fail.
  const std::string real = read_repo_source("src/store/store.cpp");
  ASSERT_NE(real.find("BENTO_FRAMED"), std::string::npos)
      << "framing annotations missing from store.cpp";
  const auto clean = bl::analyze_source("src/store/store.cpp", real);
  EXPECT_TRUE(clean.empty()) << "expected a clean store, got: "
                             << join(fired(clean));

  const std::string seeded =
      real +
      "\nnamespace { BENTO_FRAMED void lint_probe(Volume& v, "
      "const util::Bytes& f) { write_frame(v, f, true); } }\n";
  const auto diags = bl::analyze_source("src/store/store.cpp", seeded);
  ASSERT_EQ(diags.size(), 1u) << join(fired(diags));
  EXPECT_EQ(diags[0].rule, "BL109");
}

TEST(BentoLint, JsonOutputIsByteStable) {
  // Same inputs, two runs, byte-identical JSON — the property CI relies on
  // to diff analyzer output across machines.
  std::vector<bl::SourceFile> files;
  for (const char* name :
       {"bl101_wallclock.cpp", "bl102_hot_alloc.cpp", "bl103_self_capture.cpp",
        "bl104_unordered_trace.cpp", "bl105_concurrency.cpp"}) {
    files.push_back({std::string("src/sim/") + name, read_fixture(name)});
  }
  const std::string a = bl::to_json(bl::analyze_files(files));
  const std::string b = bl::to_json(bl::analyze_files(files));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"counts\""), std::string::npos);
  EXPECT_NE(a.find("\"BL102\""), std::string::npos);
  // Diagnostics arrive pre-sorted by (file, line, col, rule).
  const auto diags = bl::analyze_files(files);
  EXPECT_TRUE(std::is_sorted(
      diags.begin(), diags.end(),
      [](const bl::Diagnostic& x, const bl::Diagnostic& y) {
        return std::tie(x.file, x.line, x.col, x.rule) <
               std::tie(y.file, y.line, y.col, y.rule);
      }));
}

TEST(BentoLint, SeededViolationInRealHotPathFails) {
  // The annotations in the real tree are load-bearing: take the actual
  // ChaCha20 kernel (clean today), seed one allocation into a BENTO_HOT
  // region, and the lint must fail with BL102.
  const std::string real = read_repo_source("src/crypto/chacha20.cpp");
  ASSERT_NE(real.find("BENTO_HOT"), std::string::npos)
      << "hot-path annotations missing from chacha20.cpp";
  const auto clean = bl::analyze_source("src/crypto/chacha20.cpp", real);
  EXPECT_TRUE(clean.empty()) << "expected a clean tree, got: "
                             << join(fired(clean));

  const std::string seeded =
      real +
      "\nBENTO_HOT void lint_probe() {"
      " auto leak = std::make_unique<int>(1); (void)leak; }\n";
  const auto diags = bl::analyze_source("src/crypto/chacha20.cpp", seeded);
  ASSERT_EQ(diags.size(), 1u) << join(fired(diags));
  EXPECT_EQ(diags[0].rule, "BL102");
}
