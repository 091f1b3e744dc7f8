#include "bentotrace/critpath.hpp"

#include <sstream>
#include <string>

#include "bentotrace/textutil.hpp"

namespace bento::tools {

std::vector<obs::CritSpan> crit_spans_from_events(const std::vector<RawEvent>& events) {
  std::vector<obs::CritSpan> spans;
  const TraceForest forest = build_forest(events);
  spans.reserve(forest.spans.size());
  for (const auto& [id, node] : forest.spans) {
    obs::CritSpan s;
    s.id = id;
    s.parent = node.parent;
    s.stage = node.stage;
    s.begin_us = node.begin_ts;
    s.end_us = node.end_ts;
    s.ok = node.ok;
    s.ref = node.ref;
    s.idle_us = node.idle_us;
    s.chaos_us = node.chaos_us;
    spans.push_back(s);
  }
  return spans;
}

bool looks_like_blame_profile(std::string_view text) {
  return text.find("{\"critpath\":{") != std::string_view::npos;
}

bool parse_blame_profile(std::string_view json, obs::BlameProfile& out) {
  const std::size_t at = json.find("{\"critpath\":{");
  if (at == std::string_view::npos) return false;
  std::string_view body = json.substr(at);
  if (!find_int(body, "\"requests\":", out.requests) ||
      !find_int(body, "\"incomplete\":", out.incomplete) ||
      !find_int(body, "\"total_us\":{\"sum\":", out.sum_us) ||
      !find_int(body, "\"p50\":", out.p50_us) ||
      !find_int(body, "\"p99\":", out.p99_us) ||
      !find_int(body, "\"p99_9\":", out.p999_us) ||
      !find_int(body, "\"body_n\":", out.body_n) ||
      !find_int(body, "\"body_mean_us\":", out.body_mean_us) ||
      !find_int(body, "\"tail_n\":", out.tail_n) ||
      !find_int(body, "\"tail_mean_us\":", out.tail_mean_us)) {
    return false;
  }
  out.rows.clear();
  for (std::string_view obj : array_objects(body, "\"segments\":[")) {
    obs::BlameProfile::Row row;
    std::string region;
    if (!find_str(obj, "\"seg\":", row.seg) ||
        !find_str(obj, "\"region\":", region) ||
        !find_int(obj, "\"requests\":", row.requests) ||
        !find_int(obj, "\"total_us\":", row.total_us) ||
        !find_int(obj, "\"mean_us\":", row.mean_us) ||
        !find_int(obj, "\"body_mean_us\":", row.body_mean_us) ||
        !find_int(obj, "\"tail_mean_us\":", row.tail_mean_us) ||
        region != "all") {
      return false;
    }
    out.rows.push_back(std::move(row));
  }
  return true;
}

bool load_blame_profile(std::string_view text, obs::BlameProfile& out,
                        std::string* err) {
  if (looks_like_blame_profile(text)) {
    if (parse_blame_profile(text, out)) return true;
    if (err != nullptr) *err = "malformed critpath profile JSON";
    return false;
  }
  std::istringstream is{std::string(text)};
  const std::vector<RawEvent> events = read_jsonl(is);
  bool any = false;
  for (const RawEvent& e : events) {
    if (e.ev != "!unparsed") {
      any = true;
      break;
    }
  }
  if (!any) {
    if (err != nullptr) {
      *err = "neither a critpath profile JSON nor a trace.jsonl";
    }
    return false;
  }
  out = obs::aggregate_blame(
      obs::compute_critical_paths(crit_spans_from_events(events)));
  return true;
}

obs::SloReport evaluate_trace_slos(const std::vector<RawEvent>& events,
                                   const std::vector<obs::SloSpec>& specs) {
  obs::SloInput input;
  for (const RawEvent& e : events) {
    if (e.ev == "stream.ttfb") {
      input.add_sample("ttfb_us", static_cast<std::int64_t>(e.b));
    } else if (e.ev == "stream.ttlb") {
      input.add_sample("ttlb_us", static_cast<std::int64_t>(e.b));
    }
  }
  // critpath.* metrics (e.g. "critpath.net_link_queue_us:p99<=...") run the
  // critical-path analyzer over the same events — lazily, only when a spec
  // actually asks, so plain latency gates stay O(events).
  for (const obs::SloSpec& spec : specs) {
    if (spec.metric.rfind("critpath.", 0) == 0) {
      obs::add_critpath_series(
          obs::compute_critical_paths(crit_spans_from_events(events)), input);
      break;
    }
  }
  return obs::evaluate_slos("trace", specs, input);
}

}  // namespace bento::tools
