// The span forest of one trace (DESIGN.md §8, §14). build_forest() links
// the flight recorder's SpanBegin / SpanEnd / SpanNote events back into
// per-request trees through the parent ids packed into SpanBegin.b, and
// keeps the stream TTFB/TTLB samples beside them. It is the one place spans
// are linked: bentotrace's tables and Chrome view, the critical-path
// analyzer (obs/critpath.hpp) and the trace SLOs all walk its result.
//
// Everything is deterministic: the same events give the same forest, which
// is how the fixed-seed regression proves span trees reproducible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace bento::obs {

/// One reconstructed span.
struct SpanNode {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  Stage stage = Stage::None;
  std::int64_t begin_ts = -1;  // -1: begin lost (ring wraparound)
  std::int64_t end_ts = -1;    // -1: end never seen (orphan)
  bool ok = true;
  std::uint32_t ref = 0;         // kNoteRef annotation, if any
  std::uint64_t wire_bytes = 0;  // kNoteWireBytes annotation, if any
  std::int64_t idle_us = 0;      // kNoteLinkIdle: uncontended transit budget
  std::int64_t chaos_us = 0;     // kNoteChaosDwell: fault-added dwell
  std::vector<std::uint32_t> children;  // ordered by begin time (= id order)

  bool complete() const { return begin_ts >= 0 && end_ts >= 0; }
  std::int64_t duration_us() const { return complete() ? end_ts - begin_ts : 0; }
};

/// The whole trace: spans keyed by id plus the stream-level samples.
struct SpanForest {
  std::map<std::uint32_t, SpanNode> spans;
  // Id order == begin order. Request roots (parent 0), plus spans whose
  // parent was lost to wraparound, promoted so their subtree survives.
  std::vector<std::uint32_t> roots;
  std::vector<std::uint32_t> orphan_ends;  // SpanEnd without a begin
  std::vector<std::uint32_t> unfinished;   // begin without an end
  std::size_t unparsed_lines = 0;          // JsonlTrace::unparsed of the input
  // (circuit id, µs) pairs in stream order, from stream.ttfb / stream.ttlb.
  std::vector<std::pair<std::uint32_t, std::int64_t>> ttfb;
  std::vector<std::pair<std::uint32_t, std::int64_t>> ttlb;
};

SpanForest build_forest(const std::vector<TraceEvent>& events,
                        std::size_t unparsed_lines = 0);

/// Fixed-width text columns for the reports over a forest. lcol left-aligns
/// `s` into `width` characters; rcol right-aligns it into a column that
/// starts with at least one space, so a value as wide as its column still
/// stands apart.
void lcol(std::ostream& os, std::string_view s, std::size_t width);
void rcol(std::ostream& os, std::string_view s, std::size_t width);
void rcol(std::ostream& os, std::int64_t v, std::size_t width);

}  // namespace bento::obs
