// bentotrace's reports over a span forest (obs/forest.hpp): the summary,
// the per-request tree dump, the per-stage latency table, the TTFB/TTLB
// percentile tables and the Chrome view with causal flow arrows.
//
// Everything is deterministic: the same forest produces byte-identical
// output, which is how the fixed-seed regression proves span trees are
// reproducible across runs.
#pragma once

#include <iosfwd>

#include "obs/forest.hpp"

namespace bento::tools {

/// `bentotrace summary`: the counts of parsed events, spans and traces, the
/// stage table, the TTFB/TTLB table and, when the forest is not whole, an
/// integrity line (orphan ends, unfinished spans, unparsed lines).
void format_summary(const obs::JsonlTrace& trace, const obs::SpanForest& forest,
                    std::ostream& os);

/// Indented per-request tree dump; byte-stable for a given trace.
void format_tree(const obs::SpanForest& forest, std::ostream& os);

/// Per-stage latency table: count, failures, total/mean/p50/p95/max sim-µs.
/// Zero-duration stages (synchronous hops) still show their counts — the
/// per-hop story is in the counts and ordering, the latency story in the
/// modeled-delay stages (net.link, fn.dispatch, client.*).
void format_stage_summary(const obs::SpanForest& forest, std::ostream& os);

/// TTFB/TTLB percentiles grouped per circuit, plus an overall row.
void format_ttfb_table(const obs::SpanForest& forest, std::ostream& os);

/// Chrome trace_event JSON with one async lane per trace and flow arrows
/// binding each parent span to its children across hops.
void export_chrome(const obs::SpanForest& forest, std::ostream& os);

}  // namespace bento::tools
