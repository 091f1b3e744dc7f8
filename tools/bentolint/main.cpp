// bentolint CLI — run the BL1xx invariant catalog over the tree.
//
//   bentolint [options] <path>...            paths: files or directories
//     --json                byte-stable machine output instead of text
//     --root DIR            repo root; paths are reported relative to it
//
// Exits 1 on any diagnostic, 2 on a usage or I/O error. The tier-1 ctest
// Lint.Tree runs `bentolint --root <repo> src tools bench`, so a new
// diagnostic anywhere fails the build unless it is fixed or suppressed with
// a reason.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bentolint/analyzer.hpp"

namespace fs = std::filesystem;
using bento::lint::Diagnostic;

namespace {

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".hpp" || ext == ".h";
}

bool excluded(const std::string& rel) {
  // Build trees and the lint-rule fixtures (which violate on purpose).
  return rel.find("build/") != std::string::npos ||
         rel.find("lint_fixtures/") != std::string::npos ||
         rel.find("CMakeFiles/") != std::string::npos;
}

std::string rel_to_root(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(p, root, ec);
  std::string s = (ec || rel.empty()) ? p.generic_string() : rel.generic_string();
  return s;
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " [--json] [--root DIR] <path>...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  bool json = false;
  std::vector<std::string> inputs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--root") {
      if (++i >= argc) return usage(argv[0]);
      root = argv[i];
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) return usage(argv[0]);

  const fs::path root_path = fs::path(root);
  std::vector<std::string> files;
  for (const std::string& in : inputs) {
    const fs::path p = fs::path(in).is_absolute() ? fs::path(in)
                                                  : root_path / in;
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (fs::recursive_directory_iterator it(p, ec), end; it != end;
           it.increment(ec)) {
        if (ec) break;
        if (it->is_regular_file(ec) && lintable(it->path())) {
          files.push_back(it->path().string());
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(p.string());
    } else {
      std::cerr << "bentolint: no such path: " << in << "\n";
      return 2;
    }
  }

  // Sort by repo-relative path so output order never depends on directory
  // enumeration order (the --json determinism contract).
  std::vector<bento::lint::SourceFile> sources;
  for (const std::string& f : files) {
    std::string rel = rel_to_root(f, root_path);
    if (excluded(rel)) continue;
    std::ifstream ifs(f, std::ios::binary);
    if (!ifs) {
      std::cerr << "bentolint: cannot read " << f << "\n";
      return 2;
    }
    std::ostringstream ss;
    ss << ifs.rdbuf();
    sources.push_back({std::move(rel), ss.str()});
  }
  std::sort(sources.begin(), sources.end(),
            [](const auto& a, const auto& b) { return a.rel_path < b.rel_path; });
  sources.erase(std::unique(sources.begin(), sources.end(),
                            [](const auto& a, const auto& b) {
                              return a.rel_path == b.rel_path;
                            }),
                sources.end());

  const std::vector<Diagnostic> diags = bento::lint::analyze_files(sources);

  if (json) {
    std::cout << bento::lint::to_json(diags);
  } else {
    bento::lint::print_text(std::cout, diags);
    std::cerr << "bentolint: " << sources.size() << " file(s), "
              << diags.size() << " diagnostic(s)\n";
  }
  if (!diags.empty()) {
    std::cerr << "bentolint: FAIL: fix the diagnostic or suppress it with "
                 "`// bentolint: allow(BLxxx reason)`\n";
    return 1;
  }
  return 0;
}
