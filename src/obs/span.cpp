#include "obs/span.hpp"

namespace bento::obs {

std::uint32_t open_span(Stage stage, std::uint32_t ref) {
  const SpanContext ctx = current_span();
  if (!ctx.active() || !span_tracing_enabled()) return 0;
  const std::uint32_t id = detail::span_alloc_id();
  trace(Ev::SpanBegin, id,
        (std::uint64_t{ctx.span_id} << 32) | static_cast<std::uint64_t>(stage));
  if (ref != 0) span_note(id, kNoteRef, ref);
  return id;
}

void end_span(std::uint32_t span_id, Stage stage, bool ok) {
  if (span_id == 0) return;
  trace(Ev::SpanEnd, span_id, static_cast<std::uint64_t>(stage), ok);
}

void span_note(std::uint32_t span_id, std::uint32_t note_kind, std::uint32_t value) {
  if (span_id == 0) return;
  trace(Ev::SpanNote, span_id,
        (std::uint64_t{note_kind} << 32) | std::uint64_t{value});
}

void SpanScope::begin(std::uint32_t trace_id, std::uint32_t parent,
                      std::uint32_t ref) {
  id_ = detail::span_alloc_id();
  trace(Ev::SpanBegin, id_,
        (std::uint64_t{parent} << 32) | static_cast<std::uint64_t>(stage_));
  if (ref != 0) span_note(id_, kNoteRef, ref);
  set_current_span(SpanContext{trace_id == 0 ? id_ : trace_id, id_});
}

}  // namespace bento::obs
