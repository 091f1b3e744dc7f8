// bentotrace critical-path glue: adapts parsed trace events to the offline
// analyzer in src/obs/critpath.hpp, and reads back the byte-stable blame
// profile JSON that `bentotrace critpath --json` emits — so `bentotrace
// diff A B` accepts either a raw trace.jsonl or a committed profile on
// each side (the standing-scenario ctest diffs a fresh flight-recorder
// trace against a checked-in JSON). Also evaluates SLO specs against a
// trace.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "bentotrace/reader.hpp"
#include "obs/critpath.hpp"
#include "obs/slo.hpp"

namespace bento::tools {

/// Builds the analyzer input from parsed trace events: the span forest,
/// with the kNoteLinkIdle / kNoteChaosDwell budget notes.
std::vector<obs::CritSpan> crit_spans_from_events(const std::vector<RawEvent>& events);

/// Parses a `{"critpath":{...}}` document (obs::BlameProfile::to_json) back
/// into a profile. Returns false on anything that does not match the
/// emitter's shape. Cohort counts are recovered; the per-request vectors
/// are not (a parsed profile aggregates, it does not re-analyze).
bool parse_blame_profile(std::string_view json, obs::BlameProfile& out);

/// True when `text` looks like a blame profile JSON rather than a trace.
bool looks_like_blame_profile(std::string_view text);

/// Loads one side of a diff: a blame-profile JSON is parsed directly; any
/// other content is treated as trace.jsonl and run through the analyzer.
/// Returns false (with *err set) when neither works.
bool load_blame_profile(std::string_view text, obs::BlameProfile& out,
                        std::string* err);

/// Builds the SLO input (ttfb_us / ttlb_us series) from trace events and
/// evaluates the given objectives. Specs naming "critpath.*" metrics (e.g.
/// critpath.net_link_queue_us) run the critical-path analyzer over the same
/// events to build those series.
obs::SloReport evaluate_trace_slos(const std::vector<RawEvent>& events,
                                   const std::vector<obs::SloSpec>& specs);

}  // namespace bento::tools
