#include "obs/forest.hpp"

#include <ostream>
#include <string>

namespace bento::obs {

namespace {

Stage stage_from_index(std::uint64_t idx) {
  if (idx >= static_cast<std::uint64_t>(Stage::kCount)) return Stage::None;
  return static_cast<Stage>(idx);
}

}  // namespace

SpanForest build_forest(const std::vector<TraceEvent>& events,
                        std::size_t unparsed_lines) {
  SpanForest forest;
  forest.unparsed_lines = unparsed_lines;
  for (const TraceEvent& ev : events) {
    switch (ev.kind) {
      case Ev::SpanBegin: {
        SpanNode& node = forest.spans[ev.a];
        node.id = ev.a;
        node.parent = static_cast<std::uint32_t>(ev.b >> 32);
        node.stage = stage_from_index(ev.b & 0xffffffffu);
        node.begin_ts = ev.ts_us;
        break;
      }
      case Ev::SpanEnd: {
        const bool ok = (ev.flags & 1) != 0;
        auto it = forest.spans.find(ev.a);
        if (it != forest.spans.end()) {
          it->second.end_ts = ev.ts_us;
          it->second.ok = ok;
          break;
        }
        // Begin fell off the ring (wraparound) — synthesize a stub so the
        // end is still attributable: span.end carries the stage in b.
        SpanNode& node = forest.spans[ev.a];
        node.id = ev.a;
        node.stage = stage_from_index(ev.b & 0xffffffffu);
        node.end_ts = ev.ts_us;
        node.ok = ok;
        forest.orphan_ends.push_back(ev.a);
        break;
      }
      case Ev::SpanNote: {
        auto it = forest.spans.find(ev.a);
        if (it == forest.spans.end()) break;
        const std::uint32_t note_kind = static_cast<std::uint32_t>(ev.b >> 32);
        const std::uint32_t value = static_cast<std::uint32_t>(ev.b & 0xffffffffu);
        if (note_kind == kNoteRef) {
          it->second.ref = value;
        } else if (note_kind == kNoteWireBytes) {
          it->second.wire_bytes = value;
        } else if (note_kind == kNoteLinkIdle) {
          it->second.idle_us = value;
        } else if (note_kind == kNoteChaosDwell) {
          it->second.chaos_us = value;
        }
        break;
      }
      case Ev::StreamTtfb:
        forest.ttfb.emplace_back(ev.a, static_cast<std::int64_t>(ev.b));
        break;
      case Ev::StreamTtlb:
        forest.ttlb.emplace_back(ev.a, static_cast<std::int64_t>(ev.b));
        break;
      default:
        break;
    }
  }
  // Link children and collect roots. Span ids are allocated monotonically in
  // begin order, so iterating the id-sorted map yields begin order and the
  // children vectors come out chronologically sorted for free.
  for (auto& [id, node] : forest.spans) {
    if (node.parent != 0) {
      auto parent_it = forest.spans.find(node.parent);
      if (parent_it != forest.spans.end()) {
        parent_it->second.children.push_back(id);
        continue;
      }
      // Parent lost to wraparound: promote to root so the subtree survives.
    }
    forest.roots.push_back(id);
  }
  for (const auto& [id, node] : forest.spans) {
    if (node.begin_ts >= 0 && node.end_ts < 0) forest.unfinished.push_back(id);
  }
  return forest;
}

void lcol(std::ostream& os, std::string_view s, std::size_t width) {
  os << s;
  for (std::size_t pad = s.size(); pad < width; ++pad) os << ' ';
}

void rcol(std::ostream& os, std::string_view s, std::size_t width) {
  os << std::string(s.size() < width ? width - s.size() : 1, ' ') << s;
}

void rcol(std::ostream& os, std::int64_t v, std::size_t width) {
  rcol(os, std::to_string(v), width);
}

}  // namespace bento::obs
