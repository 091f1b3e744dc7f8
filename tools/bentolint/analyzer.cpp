#include "bentolint/analyzer.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "bentolint/lexer.hpp"

namespace bento::lint {

namespace {

// ---------------------------------------------------------------------------
// Small utilities

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

template <std::size_t N>
bool in_list(std::string_view s, const std::array<std::string_view, N>& list) {
  return std::find(list.begin(), list.end(), s) != list.end();
}

std::vector<std::string_view> split_lines(std::string_view src) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= src.size(); ++i) {
    if (i == src.size() || src[i] == '\n') {
      lines.push_back(src.substr(start, i - start));
      start = i + 1;
    }
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Rule vocabularies

constexpr std::array<std::string_view, 4> kWallClockTypes = {
    "system_clock", "steady_clock", "high_resolution_clock", "random_device"};

constexpr std::array<std::string_view, 10> kWallClockCalls = {
    "rand",      "srand",        "time",   "clock", "gettimeofday",
    "localtime", "timespec_get", "gmtime", "mktime", "ctime"};

constexpr std::array<std::string_view, 6> kAllocCalls = {
    "make_shared", "make_unique", "malloc", "calloc", "realloc", "strdup"};

constexpr std::array<std::string_view, 10> kAllocMethods = {
    "push_back", "emplace_back", "emplace", "push_front", "emplace_front",
    "resize",    "reserve",      "insert",  "append",     "assign"};

constexpr std::array<std::string_view, 15> kAllocTypes = {
    "vector",        "deque",         "list",
    "string",        "map",           "set",
    "multimap",      "multiset",      "unordered_map",
    "unordered_set", "unordered_multimap", "unordered_multiset",
    "function",      "ostringstream", "stringstream"};

constexpr std::array<std::string_view, 4> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

constexpr std::array<std::string_view, 17> kEmissionCalls = {
    "trace",     "record",   "end_span",  "begin_span", "note",
    "log",       "log_line", "log_info",  "log_warn",   "log_error",
    "log_debug", "emit",     "export_jsonl", "export_chrome_trace",
    "to_json",   "to_jsonl", "write"};

constexpr std::array<std::string_view, 13> kConcurrencyTypes = {
    "thread",          "jthread",
    "mutex",           "recursive_mutex",
    "shared_mutex",    "timed_mutex",
    "condition_variable", "condition_variable_any",
    "atomic",          "atomic_flag",
    "future",          "promise",
    "async"};

constexpr std::array<std::string_view, 6> kBannedFns = {
    "strcpy", "strcat", "sprintf", "vsprintf", "gets", "tmpnam"};

constexpr std::array<std::string_view, 9> kNotAFnName = {
    "if", "while", "for", "switch", "return", "sizeof",
    "alignof", "decltype", "catch"};

// ---------------------------------------------------------------------------
// Suppressions
//
//   // bentolint: allow(BL102 pool refill, amortized)
//   // bentolint: allow-file(BL101 bench timing loop)
//
// allow() covers the comment's own line and the next line; allow-file()
// covers the whole file. The reason text is mandatory: an unexplained
// suppression is the thing this tool exists to prevent.

struct Suppressions {
  std::map<int, std::set<std::string>> by_line;  // line -> rules allowed
  std::set<std::string> file_wide;
  std::vector<Diagnostic> malformed;  // BL100
};

Suppressions collect_suppressions(std::string_view rel_path,
                                  const std::vector<Token>& toks) {
  Suppressions sup;
  for (const Token& t : toks) {
    if (t.kind != Tok::Comment) continue;
    std::string_view text = t.text;
    const std::size_t tag = text.find("bentolint:");
    if (tag == std::string_view::npos) continue;
    text.remove_prefix(tag + std::string_view("bentolint:").size());
    std::size_t pos = 0;
    bool parsed_any = false;
    while (pos < text.size()) {
      const std::size_t open = text.find('(', pos);
      if (open == std::string_view::npos) break;
      std::size_t word_start = open;
      while (word_start > pos &&
             (std::isalnum(static_cast<unsigned char>(text[word_start - 1])) ||
              text[word_start - 1] == '-' || text[word_start - 1] == '_')) {
        --word_start;
      }
      const std::string_view verb = trim(text.substr(word_start, open - word_start));
      const std::size_t close = text.find(')', open);
      if (close == std::string_view::npos) break;
      const std::string_view body = trim(text.substr(open + 1, close - open - 1));
      pos = close + 1;
      if (verb != "allow" && verb != "allow-file") continue;
      parsed_any = true;
      // Leading BLxxx tokens (comma/space separated) are rules, the
      // remainder is the reason.
      std::vector<std::string> rules;
      std::string_view rest = body;
      while (true) {
        const std::string_view w = trim(rest.substr(0, rest.find_first_of(" ,\t")));
        if (w.size() >= 4 && starts_with(w, "BL") &&
            std::all_of(w.begin() + 2, w.end(), [](char c) {
              return std::isdigit(static_cast<unsigned char>(c));
            })) {
          rules.emplace_back(w);
          const std::size_t cut = rest.find_first_of(" ,\t");
          if (cut == std::string_view::npos) {
            rest = {};
            break;
          }
          rest = trim(rest.substr(cut + 1));
          if (!rest.empty() && rest.front() == ',') rest = trim(rest.substr(1));
        } else {
          break;
        }
      }
      const std::string_view reason = trim(rest);
      if (rules.empty() || reason.empty()) {
        Diagnostic d;
        d.rule = "BL100";
        d.file = std::string(rel_path);
        d.line = t.line;
        d.col = t.col;
        d.message = rules.empty()
                        ? "suppression names no BLxxx rule"
                        : "suppression for " + rules.front() +
                              " gives no reason (allow(BLxxx <why>))";
        sup.malformed.push_back(std::move(d));
        continue;
      }
      for (const std::string& r : rules) {
        if (verb == "allow-file") {
          sup.file_wide.insert(r);
        } else {
          sup.by_line[t.line].insert(r);
          sup.by_line[t.line + 1].insert(r);
        }
      }
    }
    (void)parsed_any;
  }
  return sup;
}

// ---------------------------------------------------------------------------
// The scope-tracking walker

enum class Brace : std::uint8_t {
  FnBody,  // a function definition's body
  Init,    // brace initializer inside a declaration / ctor init list
  Scope,   // namespace/class/enum/extern block, or a block we can't name
};

struct FnFrame {
  std::string name;
  bool hot = false;
  bool det = false;
  bool framed = false;  // BENTO_FRAMED (store frame-commit function)
  std::size_t brace_size = 0;  // brace-stack size right after body '{'
  std::vector<std::string> strong_self;  // vars assigned from shared_from_this
  // BL109 bookkeeping: did this frame call write_frame / touch a crc32
  // helper? Checked when the frame closes.
  bool wrote_frame = false;
  bool crc_update = false;
  Token write_site{};  // first write_frame call, for the diagnostic anchor
};

class FileAnalysis {
 public:
  FileAnalysis(std::string_view rel_path, std::string_view src,
               const FileScope& scope)
      : path_(rel_path), scope_(scope), lines_(split_lines(src)) {
    all_ = lex(src);
    sup_ = collect_suppressions(rel_path, all_);
    for (const Token& t : all_) {
      if (t.kind == Tok::Comment) continue;
      if (t.kind == Tok::Pp) {
        pp_.push_back(t);
        continue;
      }
      sig_.push_back(t);
    }
  }

  std::vector<Diagnostic> run() {
    collect_unordered_names();
    check_preprocessor();
    walk();
    for (Diagnostic& d : sup_.malformed) diags_.push_back(std::move(d));
    apply_suppressions();
    std::sort(diags_.begin(), diags_.end(),
              [](const Diagnostic& a, const Diagnostic& b) {
                return std::tie(a.line, a.col, a.rule) <
                       std::tie(b.line, b.col, b.rule);
              });
    return std::move(diags_);
  }

 private:
  // -- token helpers over sig_ ----------------------------------------------
  std::string_view text(std::size_t i) const {
    return i < sig_.size() ? sig_[i].text : std::string_view{};
  }
  bool is_punct(std::size_t i, std::string_view p) const {
    return i < sig_.size() && sig_[i].kind == Tok::Punct && sig_[i].text == p;
  }
  bool is_ident(std::size_t i) const {
    return i < sig_.size() && sig_[i].kind == Tok::Ident;
  }

  void report(std::string rule, const Token& at, std::string message) {
    Diagnostic d;
    d.rule = std::move(rule);
    d.file = std::string(path_);
    d.line = at.line;
    d.col = at.col;
    d.message = std::move(message);
    diags_.push_back(std::move(d));
  }

  // -- pre-passes -----------------------------------------------------------

  // Names declared with an unordered container type anywhere in the file
  // (members and locals alike): `std::unordered_map<K, V> name`.
  void collect_unordered_names() {
    for (std::size_t i = 0; i + 1 < sig_.size(); ++i) {
      if (!is_ident(i) || !in_list(sig_[i].text, kUnorderedTypes)) continue;
      std::size_t j = i + 1;
      if (is_punct(j, "<")) {
        int angle = 0;
        for (; j < sig_.size(); ++j) {
          if (is_punct(j, "<")) ++angle;
          if (is_punct(j, ">")) {
            if (--angle == 0) {
              ++j;
              break;
            }
          }
        }
      }
      while (is_punct(j, "&") || is_punct(j, "*")) ++j;
      if (is_ident(j)) unordered_names_.insert(std::string(sig_[j].text));
    }
  }

  void check_preprocessor() {
    bool pragma_once = false;
    for (const Token& t : pp_) {
      // Normalize "#  include" to "#include".
      std::string head;
      for (const char c : t.text) {
        if (!std::isspace(static_cast<unsigned char>(c))) head.push_back(c);
        if (head.size() > 14) break;
      }
      if (starts_with(head, "#pragmaonce")) pragma_once = true;
      if (starts_with(head, "#include")) {
        const std::string_view body = t.text;
        if (body.find("\"../") != std::string_view::npos ||
            body.find("/../") != std::string_view::npos) {
          report("BL108", t,
                 "relative include escapes the source root; include "
                 "repo-rooted paths (\"subsys/header.hpp\")");
        }
        if (body.find("<bits/") != std::string_view::npos) {
          report("BL108", t,
                 "<bits/...> is a libstdc++ internal; include the standard "
                 "header instead");
        }
      }
    }
    if (scope_.is_header && !pragma_once && !lines_.empty()) {
      Token at;
      at.line = 1;
      at.col = 1;
      report("BL107", at, "header has no #pragma once guard");
    }
  }

  // -- declaration classification -------------------------------------------

  struct DeclInfo {
    bool is_function = false;
    bool is_scope = false;   // namespace/class/struct/enum/union/extern block
    bool is_init = false;    // `= {...}` style initializer
    bool in_ctor_init = false;  // function pattern followed by `:`
    bool hot = false;
    bool det = false;
    bool framed = false;
    std::string name;
  };

  DeclInfo classify_decl() const {
    DeclInfo info;
    int paren = 0;
    std::size_t first_call_open = std::string_view::npos;
    bool seen_close_after_open = false;
    for (std::size_t k = 0; k < decl_.size(); ++k) {
      const Token& t = decl_[k];
      if (t.kind == Tok::Ident) {
        if (paren == 0) {
          if (t.text == "namespace" || t.text == "class" ||
              t.text == "struct" || t.text == "union" || t.text == "enum" ||
              t.text == "extern") {
            // `class Foo;` and `class Foo x;` never reach '{'; anything that
            // does open a brace after these keywords is a scope, except a
            // function returning a `struct X`-qualified type — rare enough
            // to leave to suppressions.
            info.is_scope = true;
          }
          if (t.text == "BENTO_HOT") info.hot = true;
          if (t.text == "BENTO_DETERMINISTIC") info.det = true;
          if (t.text == "BENTO_FRAMED") info.framed = true;
        }
        continue;
      }
      if (t.kind != Tok::Punct) continue;
      if (t.text == "(") {
        if (paren == 0 && first_call_open == std::string_view::npos &&
            k > 0) {
          const Token& prev = decl_[k - 1];
          const bool callable_name =
              (prev.kind == Tok::Ident && !in_list(prev.text, kNotAFnName)) ||
              // `operator()(...)`: the param list follows `operator ( )`.
              (prev.kind == Tok::Punct && prev.text == ")" && k >= 3 &&
               decl_[k - 3].kind == Tok::Ident &&
               decl_[k - 3].text == "operator");
          if (callable_name) {
            first_call_open = k;
            info.name = prev.kind == Tok::Ident ? std::string(prev.text)
                                                : "operator()";
          }
        }
        ++paren;
      } else if (t.text == ")") {
        if (paren > 0) --paren;
        if (paren == 0 && first_call_open != std::string_view::npos) {
          seen_close_after_open = true;
        }
      } else if (paren == 0) {
        if (t.text == "=" && !seen_close_after_open) {
          // `Type x = ...{...}` — an initializer, not a body. (A trailing
          // `= default`/`= delete` never opens a brace.)
          info.is_init = true;
        }
        if (t.text == ":" && seen_close_after_open) {
          info.in_ctor_init = true;
        }
      }
    }
    info.is_function = !info.is_scope && !info.is_init &&
                       first_call_open != std::string_view::npos &&
                       seen_close_after_open;
    return info;
  }

  bool inside_function() const { return !fns_.empty(); }
  bool inside_hot() const {
    return std::any_of(fns_.begin(), fns_.end(),
                       [](const FnFrame& f) { return f.hot; });
  }
  bool inside_det() const {
    return std::any_of(fns_.begin(), fns_.end(),
                       [](const FnFrame& f) { return f.det; });
  }

  // -- the main walk --------------------------------------------------------

  void walk() {
    for (std::size_t i = 0; i < sig_.size(); ++i) {
      const Token& t = sig_[i];
      if (t.kind == Tok::Punct) {
        if (t.text == "{") {
          on_open_brace(i);
          continue;
        }
        if (t.text == "}") {
          on_close_brace();
          continue;
        }
        if (t.text == ";") {
          if (!inside_function()) decl_.clear();
          stmt_.clear();
          continue;
        }
        if (t.text == "[" && inside_function()) {
          i = maybe_lambda_capture(i);
          continue;
        }
      }
      if (!inside_function()) {
        decl_.push_back(t);
        // Access specifiers would otherwise pollute the next declaration.
        if (t.kind == Tok::Punct && t.text == ":" && decl_.size() == 2 &&
            decl_[0].kind == Tok::Ident &&
            (decl_[0].text == "public" || decl_[0].text == "private" ||
             decl_[0].text == "protected")) {
          decl_.clear();
        }
      } else {
        stmt_.push_back(t);
      }
      if (t.kind == Tok::Ident) on_ident(i);
    }
  }

  void on_open_brace(std::size_t i) {
    if (inside_function()) {
      braces_.push_back(Brace::Scope);
      stmt_.clear();
      return;
    }
    const DeclInfo info = classify_decl();
    Brace kind = Brace::Scope;
    if (info.is_init) {
      kind = Brace::Init;
    } else if (info.is_function) {
      if (info.in_ctor_init) {
        // Inside `Ctor(...) : a_(x), b_{y} { body }` the body brace is the
        // one following a closed initializer (')' or '}'); a brace after an
        // identifier, comma or colon opens an initializer value.
        const bool in_init_value =
            !braces_.empty() && braces_.back() == Brace::Init;
        const Token* prev = i > 0 ? &sig_[i - 1] : nullptr;
        const bool after_closed_init =
            prev != nullptr && prev->kind == Tok::Punct &&
            (prev->text == ")" || prev->text == "}");
        kind = (!in_init_value && after_closed_init) ? Brace::FnBody
                                                     : Brace::Init;
      } else {
        kind = Brace::FnBody;
      }
    }
    braces_.push_back(kind);
    if (kind == Brace::FnBody) {
      FnFrame f;
      f.name = info.name;
      f.hot = info.hot;
      f.det = info.det;
      f.framed = info.framed;
      f.brace_size = braces_.size();
      fns_.push_back(std::move(f));
      decl_.clear();
      stmt_.clear();
    } else if (kind == Brace::Scope) {
      decl_.clear();
    }
  }

  void on_close_brace() {
    if (braces_.empty()) return;
    const Brace kind = braces_.back();
    braces_.pop_back();
    if (kind == Brace::FnBody && !fns_.empty() &&
        braces_.size() < fns_.back().brace_size) {
      // BL109, second clause: a BENTO_FRAMED function that committed a frame
      // must also have refreshed its CRC (any crc32* helper). Checked at the
      // closing brace so a crc32 call anywhere in the body satisfies it.
      const FnFrame& f = fns_.back();
      if (f.wrote_frame && !f.crc_update) {
        report("BL109", f.write_site,
               "'" + f.name + "' calls write_frame but never computes a "
               "crc32 over the frame; every committed frame must carry a "
               "fresh CRC (torn-write recovery depends on it, DESIGN.md §15)");
      }
      fns_.pop_back();
      decl_.clear();
    }
    if (kind == Brace::Scope && !inside_function()) decl_.clear();
    stmt_.clear();
  }

  // -- per-identifier rules -------------------------------------------------

  void on_ident(std::size_t i) {
    const Token& t = sig_[i];
    const std::string_view s = t.text;

    // BL101 — wall clock / entropy where determinism is the contract.
    if (scope_.deterministic_everywhere || inside_det()) {
      if (in_list(s, kWallClockTypes)) {
        report("BL101", t,
               "'" + std::string(s) +
                   "' in deterministic code; sim time comes from "
                   "util/simclock.hpp, randomness from the seeded Rng");
      } else if (in_list(s, kWallClockCalls) && is_punct(i + 1, "(") &&
                 is_free_or_std_call(i)) {
        report("BL101", t,
               "'" + std::string(s) +
                   "()' reads the wall clock / process entropy; "
                   "deterministic code must use util/simclock.hpp or the "
                   "seeded Rng");
      }
    }

    // BL102 — allocation inside a BENTO_HOT function.
    if (inside_hot()) {
      const bool operator_new_call = i > 0 && text(i - 1) == "operator";
      if (s == "new" && (operator_new_call || !is_punct(i + 1, "("))) {
        // `new (place) T` placement form is the pool fast path — allowed;
        // `::operator new(n)` is a plain heap allocation and is not.
        report("BL102", t, "operator new in BENTO_HOT function '" +
                               fns_.back().name + "'");
      } else if (in_list(s, kAllocCalls) &&
                 (is_punct(i + 1, "(") || is_punct(i + 1, "<"))) {
        report("BL102", t, "'" + std::string(s) + "' allocates in BENTO_HOT "
                               "function '" + fns_.back().name + "'");
      } else if (in_list(s, kAllocMethods) && is_punct(i + 1, "(") && i > 0 &&
                 (is_punct(i - 1, ".") || is_punct(i - 1, "->"))) {
        report("BL102", t,
               "'." + std::string(s) + "()' may grow the container in "
                                       "BENTO_HOT function '" +
                   fns_.back().name + "'");
      } else if (in_list(s, kAllocTypes) && i >= 2 && is_punct(i - 1, "::") &&
                 text(i - 2) == "std" &&
                 (is_punct(i + 1, "<") || is_punct(i + 1, "("))) {
        report("BL102", t, "allocating std::" + std::string(s) +
                               " constructed in BENTO_HOT function '" +
                               fns_.back().name + "'");
      }
    }

    // BL103 — strong self-capture bookkeeping: `x = shared_from_this()`
    // outside a weak_ptr declaration marks x as a strong self handle.
    if (inside_function() && s == "shared_from_this") {
      bool weak = false;
      std::string target;
      for (std::size_t k = 0; k + 1 < stmt_.size(); ++k) {
        if (stmt_[k].kind == Tok::Ident && stmt_[k].text == "weak_ptr") {
          weak = true;
        }
        if (stmt_[k + 1].kind == Tok::Punct && stmt_[k + 1].text == "=" &&
            stmt_[k].kind == Tok::Ident) {
          target = std::string(stmt_[k].text);
        }
      }
      if (!weak && !target.empty()) {
        fns_.back().strong_self.push_back(std::move(target));
      }
    }

    // BL104 — unordered iteration feeding emission.
    if (inside_function() && s == "for" && is_punct(i + 1, "(")) {
      check_range_for(i);
    }

    // BL105 — concurrency ban over src/. The simulator is one event loop
    // (DESIGN.md §12) and everything in src/ runs on it, so no thread,
    // lock, atomic or thread-local state has a reason to exist there.
    if (scope_.concurrency_ban) {
      if (in_list(s, kConcurrencyTypes) && i >= 2 && is_punct(i - 1, "::") &&
          text(i - 2) == "std") {
        report("BL105", t,
               "std::" + std::string(s) +
                   " in src/: the simulator is single-threaded (DESIGN.md "
                   "§12); keep this code on the event loop");
      } else if (starts_with(s, "pthread_") || s == "thread_local") {
        report("BL105", t,
               "'" + std::string(s) +
                   "' in src/: the simulator is single-threaded (DESIGN.md "
                   "§12); keep this code on the event loop");
      }
    }

    // BL109 — store framing invariant (src/store only): write_frame is the
    // single durable-commit primitive, and every caller must be annotated
    // BENTO_FRAMED *and* compute a CRC (a crc32*-named helper) in the same
    // function body, so no frame ever reaches the log without a checksum.
    if (scope_.store_framing && inside_function()) {
      if (s == "write_frame" && is_punct(i + 1, "(")) {
        FnFrame& f = fns_.back();
        if (!f.framed) {
          report("BL109", t,
                 "call to write_frame in '" + f.name + "', which is not "
                 "annotated BENTO_FRAMED; frame commits are restricted to "
                 "BENTO_FRAMED functions that pair the write with a crc32 "
                 "update (DESIGN.md §15)");
        } else if (!f.wrote_frame) {
          f.wrote_frame = true;
          f.write_site = t;
        }
      } else if (starts_with(s, "crc32")) {
        for (FnFrame& f : fns_) f.crc_update = true;
      }
    }

    // BL106 — banned unsafe C functions.
    if (in_list(s, kBannedFns) && is_punct(i + 1, "(") &&
        is_free_or_std_call(i)) {
      report("BL106", t,
             "'" + std::string(s) + "' is banned (unbounded write); use the "
                                    "bounded/std alternatives");
    }
  }

  // A call is "free or std::" when it is not a member access and any
  // qualifier is exactly `std` — `msg.time()` and `util::time()` are fine,
  // `time()` and `std::time()` are not.
  bool is_free_or_std_call(std::size_t i) const {
    if (i == 0) return true;
    if (is_punct(i - 1, ".") || is_punct(i - 1, "->")) return false;
    if (is_punct(i - 1, "::")) return i >= 2 && text(i - 2) == "std";
    return true;
  }

  // BL103, capture side: at a lambda introducer, each capture segment that
  // carries shared_from_this() or a tracked strong-self variable (without a
  // weak_ptr conversion in the same segment) is the leak class. So is a
  // lambda assigned through a pointer, `*x = [..., x, ...]`, that copies x:
  // the function then owns the shared_ptr it is stored in.
  std::size_t maybe_lambda_capture(std::size_t open) {
    // `[[` attribute, subscript `a[i]`, or array declarator `int a[3]`.
    if (is_punct(open + 1, "[")) return open;
    if (open > 0) {
      const Token& prev = sig_[open - 1];
      if (prev.kind == Tok::Ident || prev.kind == Tok::Number ||
          prev.kind == Tok::String ||
          (prev.kind == Tok::Punct &&
           (prev.text == ")" || prev.text == "]"))) {
        return open;
      }
    }
    std::size_t close = open + 1;
    int depth = 1;
    for (; close < sig_.size(); ++close) {
      if (is_punct(close, "[")) ++depth;
      if (is_punct(close, "]") && --depth == 0) break;
    }
    if (close >= sig_.size()) return open;
    std::string_view stored_through;
    if (open >= 3 && is_punct(open - 1, "=") && is_ident(open - 2) &&
        is_punct(open - 3, "*")) {
      // A unary `*`: not preceded by an operand (`a * x = ...` is no lvalue).
      const bool operand_before =
          open >= 4 && (sig_[open - 4].kind == Tok::Ident ||
                        sig_[open - 4].kind == Tok::Number ||
                        sig_[open - 4].kind == Tok::String ||
                        is_punct(open - 4, "]"));
      if (!operand_before) stored_through = sig_[open - 2].text;
    }
    // Split the capture list into top-level comma segments.
    std::size_t seg_start = open + 1;
    int nest = 0;
    for (std::size_t k = open + 1; k <= close; ++k) {
      const bool at_end = k == close;
      if (!at_end && sig_[k].kind == Tok::Punct) {
        const std::string_view p = sig_[k].text;
        if (p == "(" || p == "{" || p == "<" || p == "[") ++nest;
        if (p == ")" || p == "}" || p == ">" || p == "]") --nest;
      }
      if (at_end || (nest == 0 && is_punct(k, ","))) {
        check_capture_segment(seg_start, k, stored_through);
        seg_start = k + 1;
      }
    }
    return close;
  }

  void check_capture_segment(std::size_t from, std::size_t to,
                             std::string_view stored_through) {
    bool has_self_call = false;
    bool has_weak = false;
    const Token* strong_var = nullptr;
    for (std::size_t k = from; k < to; ++k) {
      if (!is_ident(k)) continue;
      const std::string_view s = sig_[k].text;
      if (s == "shared_from_this") has_self_call = true;
      if (s == "weak_ptr") has_weak = true;
      if (!fns_.empty() && strong_var == nullptr) {
        for (const FnFrame& f : fns_) {
          if (std::find(f.strong_self.begin(), f.strong_self.end(), s) !=
              f.strong_self.end()) {
            strong_var = &sig_[k];
            break;
          }
        }
      }
    }
    if (has_weak) return;  // `[w = std::weak_ptr<T>(shared_from_this())]`
    if (!stored_through.empty()) {
      // `x` or `name = x`: a copy of the pointer the lambda is stored through.
      std::size_t copied = to;
      if (to - from == 1) copied = from;
      if (to - from == 3 && is_punct(from + 1, "=")) copied = from + 2;
      if (copied < to && is_ident(copied) &&
          sig_[copied].text == stored_through) {
        report("BL103", sig_[copied],
               "lambda stored through '*" + std::string(stored_through) +
                   "' captures '" + std::string(stored_through) +
                   "' by copy: the function owns the shared_ptr it is "
                   "stored in (reference cycle) — capture std::weak_ptr and "
                   "lock() in the body, and let the scheduled event hold the "
                   "strong reference");
        return;
      }
    }
    if (has_self_call) {
      report("BL103", sig_[from > 0 ? from - 1 : from],
             "lambda captures shared_from_this(); a handler queued on the "
             "object itself keeps it alive forever (reference cycle) — "
             "capture std::weak_ptr and lock() in the body");
    } else if (strong_var != nullptr) {
      report("BL103", *strong_var,
             "lambda captures '" + std::string(strong_var->text) +
                 "', a shared_ptr obtained from shared_from_this() — the "
                 "BentoConnection leak class; capture std::weak_ptr and "
                 "lock() in the body");
    }
  }

  // BL104: `for (auto& x : container)` where container's declared type is
  // unordered and the loop body emits trace/log events.
  void check_range_for(std::size_t for_idx) {
    std::size_t open = for_idx + 1;  // '('
    int depth = 0;
    std::size_t colon = 0;
    std::size_t close = open;
    for (std::size_t k = open; k < sig_.size(); ++k) {
      if (is_punct(k, "(")) ++depth;
      if (is_punct(k, ")") && --depth == 0) {
        close = k;
        break;
      }
      if (depth == 1 && is_punct(k, ":") && colon == 0) colon = k;
    }
    if (colon == 0 || close <= colon) return;
    std::string container;
    for (std::size_t k = colon + 1; k < close; ++k) {
      if (is_ident(k)) container = std::string(sig_[k].text);
    }
    if (unordered_names_.count(container) == 0) return;
    // Body: the following brace block, or a single statement up to ';'.
    std::size_t k = close + 1;
    std::size_t body_end;
    if (is_punct(k, "{")) {
      int b = 0;
      body_end = k;
      for (; body_end < sig_.size(); ++body_end) {
        if (is_punct(body_end, "{")) ++b;
        if (is_punct(body_end, "}") && --b == 0) break;
      }
    } else {
      body_end = k;
      while (body_end < sig_.size() && !is_punct(body_end, ";")) ++body_end;
    }
    for (; k < body_end; ++k) {
      if (is_ident(k) && in_list(sig_[k].text, kEmissionCalls) &&
          is_punct(k + 1, "(")) {
        report("BL104", sig_[for_idx],
               "iteration over unordered container '" + container +
                   "' feeds '" + std::string(sig_[k].text) +
                   "' — iteration order is nondeterministic and lands in "
                   "the trace; iterate a sorted view or use std::map");
        return;
      }
    }
  }

  // -- post-processing ------------------------------------------------------

  void apply_suppressions() {
    std::vector<Diagnostic> kept;
    kept.reserve(diags_.size());
    for (Diagnostic& d : diags_) {
      // BL100 judges the annotations themselves; BL105 is a plain ban.
      if (d.rule != "BL100" && d.rule != "BL105") {
        if (sup_.file_wide.count(d.rule) != 0) continue;
        const auto it = sup_.by_line.find(d.line);
        if (it != sup_.by_line.end() && it->second.count(d.rule) != 0) {
          continue;
        }
      }
      kept.push_back(std::move(d));
    }
    diags_ = std::move(kept);
  }

  std::string_view path_;
  FileScope scope_;
  std::vector<std::string_view> lines_;
  std::vector<Token> all_;
  std::vector<Token> sig_;  // comments and preprocessor stripped
  std::vector<Token> pp_;
  Suppressions sup_;

  std::set<std::string> unordered_names_;
  std::vector<Token> decl_;   // tokens since the last boundary, outside fns
  std::vector<Token> stmt_;   // tokens since the last boundary, inside fns
  std::vector<Brace> braces_;
  std::vector<FnFrame> fns_;
  std::vector<Diagnostic> diags_;
};

void json_escape(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += "0123456789abcdef"[(c >> 4) & 0xf];
          out += "0123456789abcdef"[c & 0xf];
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

FileScope scope_for_path(std::string_view rel_path) {
  FileScope scope;
  scope.deterministic_everywhere = starts_with(rel_path, "src/");
  scope.concurrency_ban = starts_with(rel_path, "src/");
  scope.is_header = ends_with(rel_path, ".hpp") || ends_with(rel_path, ".h");
  scope.store_framing = starts_with(rel_path, "src/store/");
  return scope;
}

std::vector<Diagnostic> analyze_source(std::string_view rel_path,
                                       std::string_view src) {
  FileAnalysis fa(rel_path, src, scope_for_path(rel_path));
  return fa.run();
}

std::vector<Diagnostic> analyze_files(const std::vector<SourceFile>& files) {
  std::vector<Diagnostic> all;
  for (const SourceFile& f : files) {
    std::vector<Diagnostic> d = analyze_source(f.rel_path, f.contents);
    all.insert(all.end(), std::make_move_iterator(d.begin()),
               std::make_move_iterator(d.end()));
  }
  std::sort(all.begin(), all.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.col, a.rule) <
                     std::tie(b.file, b.line, b.col, b.rule);
            });
  return all;
}

std::string to_json(const std::vector<Diagnostic>& diags) {
  std::string out = "{\"diagnostics\":[";
  bool first = true;
  std::map<std::string, int> counts;
  for (const Diagnostic& d : diags) {
    if (!first) out += ",";
    first = false;
    out += "{\"rule\":\"";
    json_escape(out, d.rule);
    out += "\",\"file\":\"";
    json_escape(out, d.file);
    out += "\",\"line\":" + std::to_string(d.line);
    out += ",\"col\":" + std::to_string(d.col);
    out += ",\"message\":\"";
    json_escape(out, d.message);
    out += "\"}";
    counts[d.rule] += 1;
  }
  out += "],\"counts\":{";
  first = true;
  for (const auto& [rule, n] : counts) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    json_escape(out, rule);
    out += "\":" + std::to_string(n);
  }
  out += "},\"total\":" + std::to_string(diags.size()) + "}\n";
  return out;
}

void print_text(std::ostream& os, const std::vector<Diagnostic>& diags) {
  for (const Diagnostic& d : diags) {
    os << d.file << ":" << d.line << ":" << d.col << ": " << d.rule << ": "
       << d.message << "\n";
  }
}

}  // namespace bento::lint
