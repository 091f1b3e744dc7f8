// bentolint rule engine: Bento's build-time invariants as BL1xx diagnostics.
//
// The compiler cannot see that the simulator must stay seed-deterministic,
// that the cell datapath must stay allocation-free, or that an async reply
// handler must not keep its own connection alive. bentolint can, with the
// same shape as the PR 1 BentoScript analyzer: a real lexer, a brace/scope
// tracker that knows which function it is inside (and whether that function
// carries a BENTO_HOT / BENTO_DETERMINISTIC annotation), and a rule catalog
// evaluated over the token stream. See DESIGN.md §10 for the contract each
// rule enforces and EXPERIMENTS.md for the triage workflow.
//
// Rule catalog:
//   BL101  wall-clock / entropy in deterministic code (sim time must come
//          through util/simclock.hpp, randomness through the seeded Rng)
//   BL102  heap allocation inside a BENTO_HOT function (the 0-allocs/cell
//          datapath guarantee, enforced at the source instead of the bench)
//   BL103  shared_from_this() (or a shared self variable derived from it)
//          captured by a lambda, or a lambda stored through a pointer that
//          it captures by copy (`*x = [x] {...}`) — the BentoConnection/
//          shard/multipath reference-cycle leak class; capture a weak_ptr
//          and lock()
//   BL104  iteration over an unordered container feeding trace/log/event
//          emission (iteration-order nondeterminism reaches the recorders)
//   BL105  std::thread/mutex/condition_variable/atomic/future, pthread_*
//          or thread_local anywhere in src/: the simulator is one event
//          loop (DESIGN.md §12). A plain ban — allow annotations do not
//          lift it
//   BL106  banned unsafe C functions (strcpy, sprintf, gets, ...)
//   BL107  header without #pragma once
//   BL108  include hygiene ("../" escapes, <bits/...> internals)
//   BL109  store framing invariant (src/store only): every call to the
//          write_frame primitive must sit inside a BENTO_FRAMED function
//          that also performs a crc32 update — the every-frame-carries-a-
//          CRC contract torn-write recovery depends on (DESIGN.md §15)
//
// Suppressions: `// bentolint: allow(BL102 reason...)` on the same or the
// previous line; `// bentolint: allow-file(BL101 reason...)` anywhere in
// the file. A reason is required — a bare allow() is itself reported.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace bento::lint {

struct Diagnostic {
  std::string rule;       // "BL101"
  std::string file;       // repo-relative path, '/' separators
  int line = 0;
  int col = 0;
  std::string message;
};

/// Where a file sits in the tree decides which rules apply to it.
struct FileScope {
  // BL101 applies to every function (true for src/ — the whole simulation
  // core is covered by the DESIGN.md §9 determinism contract). When false
  // (tools/, bench/ — wall-clock timing loops are their job), BL101 only
  // fires inside functions annotated BENTO_DETERMINISTIC.
  bool deterministic_everywhere = false;
  // BL105 concurrency ban (src/ only).
  bool concurrency_ban = false;
  // BL107 pragma-once check (headers only).
  bool is_header = false;
  // BL109 frame/CRC pairing (src/store only).
  bool store_framing = false;
};

/// Derives the scope from a repo-relative path (forward slashes).
FileScope scope_for_path(std::string_view rel_path);

/// Runs every applicable rule over one file. `rel_path` is used verbatim in
/// diagnostics; `src` is the file contents. Suppressed diagnostics are
/// dropped here; malformed suppression comments come back as BL100.
std::vector<Diagnostic> analyze_source(std::string_view rel_path,
                                       std::string_view src);

/// Convenience: analyze a set of in-memory files in the deterministic order
/// of the vector and sort the combined list (tests and main both use this).
struct SourceFile {
  std::string rel_path;
  std::string contents;
};
std::vector<Diagnostic> analyze_files(const std::vector<SourceFile>& files);

/// Byte-stable machine output: one canonical JSON document, diagnostics
/// pre-sorted, integers only, no environment-dependent fields.
std::string to_json(const std::vector<Diagnostic>& diags);

/// Human output, one line per diagnostic: file:line:col: rule: message.
void print_text(std::ostream& os, const std::vector<Diagnostic>& diags);

}  // namespace bento::lint
