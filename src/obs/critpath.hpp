// Per-request critical-path attribution over the span forest (DESIGN.md §14).
//
// The flight recorder measures; this module explains. Given the span forest
// of a run (obs/forest.hpp, with the per-link budget notes the network
// stamps), compute_critical_paths() reconstructs, for every request root, *where
// each microsecond of its TTLB went*: which (stage, segment kind) was the
// most specific work in flight at every instant of the request's lifetime.
// The resulting blame vector sums exactly to the request's measured
// duration — 100% attribution, no unexplained gap, by construction (the
// root span always covers the interval being divided).
//
// Segment kinds:
//   exec          a span's own time before its first child started
//   wait          a span's time after a child started (sim-queue / in-flight)
//   link_queue    net.link time beyond the idle budget: DRR queue contention
//   link_transit  net.link idle budget: serialize at spec bandwidth + latency
//   chaos_dwell   net.link time added by faults: throttled serialization and
//                 injected jitter delay (kNoteChaosDwell)
//
// Everything here is offline analysis over exported trace data: the hot
// paths (0 allocs/cell, ≤2% tracing overhead) never run this code.
//
// All arithmetic is integer µs and all output formatting is integer-only
// (percent values are emitted as x100 fixed point), so reports are
// byte-identical across hosts for the same trace.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/forest.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"

namespace bento::obs {

/// How a microsecond on the critical path was spent (see header comment).
enum class SegKind : std::uint8_t {
  Exec,
  Wait,
  LinkQueue,
  LinkTransit,
  ChaosDwell,
};

/// Stable segment name, e.g. (NetLink, LinkQueue) -> "net_link_queue",
/// (ClientInvoke, Wait) -> "client_invoke_wait", (_, ChaosDwell) ->
/// "chaos_dwell". These are the names the SLO grammar sees as
/// "critpath.<name>_us".
std::string segment_name(Stage stage, SegKind kind);

/// One (stage, kind) cell of a request's blame vector.
struct BlameSeg {
  Stage stage = Stage::None;
  SegKind kind = SegKind::Exec;
  std::int64_t us = 0;
};

/// One request's critical path, fully attributed: sum(segs.us) == total_us.
struct RequestBlame {
  std::uint32_t root_id = 0;
  std::uint32_t ref = 0;  // root's kNoteRef (session index, when stamped)
  std::int64_t begin_us = 0;
  std::int64_t total_us = 0;  // root duration == measured TTLB
  bool ok = true;
  std::vector<BlameSeg> segs;  // sorted by (stage, kind)
};

struct CritReport {
  std::vector<RequestBlame> requests;  // root-id (= begin) order
  std::uint64_t incomplete = 0;  // roots dropped: begin or end missing
};

/// Reconstructs every request's critical path. A request is a root with
/// parent == 0 and both endpoints recorded; descendant spans are clamped to
/// the root's interval, and at every instant the deepest active span (ties:
/// latest begin, then highest id — the most recently dispatched work) takes
/// the blame.
CritReport compute_critical_paths(const SpanForest& forest);

/// Aggregated blame across requests, with p50-body vs p99-tail cohorts.
struct BlameProfile {
  struct Row {
    std::string seg;               // segment_name()
    std::uint64_t requests = 0;    // requests with >0 µs in this cell
    std::int64_t total_us = 0;
    std::int64_t mean_us = 0;      // total_us / all complete requests
    std::int64_t body_mean_us = 0; // per-request mean over the body cohort
    std::int64_t tail_mean_us = 0; // per-request mean over the tail cohort
  };

  std::uint64_t requests = 0;
  std::uint64_t incomplete = 0;
  std::int64_t sum_us = 0;  // sum of all request totals (== sum of blame)
  std::int64_t p50_us = 0;
  std::int64_t p99_us = 0;
  std::int64_t p999_us = 0;
  std::uint64_t body_n = 0;  // requests with total <= p50
  std::uint64_t tail_n = 0;  // requests with total >= p99
  std::int64_t body_mean_us = 0;
  std::int64_t tail_mean_us = 0;
  // Ordered by total blame descending (ties: name), so the top row is the
  // headline.
  std::vector<Row> rows;

  /// Name of the segment with the most total blame ("" when empty).
  std::string top_segment() const;

  /// Byte-stable single-line JSON: {"critpath":{...}}. Every segment row
  /// carries "region":"all", a field consumers filter on.
  void to_json(std::ostream& os) const;
  std::string to_json() const;

  /// Byte-stable human table.
  std::string to_string() const;
};

BlameProfile aggregate_blame(const CritReport& report);

/// Adds the critpath series to an SLO input: "critpath.total_us" plus one
/// "critpath.<segment>_us" series per segment seen anywhere in the report,
/// each with exactly one sample per complete request (0 when that request
/// spent nothing there) — so percentile gates compare like with like.
void add_critpath_series(const CritReport& report, SloInput& input);

/// Evaluates `specs` against a trace: "ttfb_us" and "ttlb_us" are its
/// stream samples, and when a spec names a "critpath.*" series the
/// critical-path analyzer runs over the same forest to add those.
SloReport evaluate_trace_slos(const SpanForest& forest,
                              const std::vector<SloSpec>& specs);

/// The regression rule of diff_blame(): a per-request mean must grow by
/// more than both of these to count.
inline constexpr std::int64_t kDiffThresholdPct = 10;
inline constexpr std::int64_t kDiffFloorUs = 50;

/// Cross-run comparison of two blame profiles (run A = baseline, run B =
/// candidate; `bentotrace diff A B` builds both from traces). A segment regresses when its per-request mean — overall or
/// tail-cohort — grows by more than kDiffFloorUs AND by more than
/// kDiffThresholdPct percent. Missing segments count as mean 0 on the side
/// they miss.
struct BlameDiff {
  struct Row {
    std::string seg;
    std::int64_t a_mean_us = 0;
    std::int64_t b_mean_us = 0;
    std::int64_t a_tail_mean_us = 0;
    std::int64_t b_tail_mean_us = 0;
    bool regressed = false;
  };
  std::uint64_t a_requests = 0;
  std::uint64_t b_requests = 0;
  std::vector<Row> rows;  // segment-name order

  bool regressed() const;
  std::string to_string() const;
};

BlameDiff diff_blame(const BlameProfile& a, const BlameProfile& b);

}  // namespace bento::obs
