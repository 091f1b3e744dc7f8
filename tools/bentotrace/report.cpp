#include "bentotrace/report.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/slo.hpp"

namespace bento::tools {

using obs::lcol;
using obs::rcol;
using obs::slo_percentile;
using obs::SpanForest;
using obs::SpanNode;

namespace {

void format_node(const SpanForest& forest, std::uint32_t id, int depth,
                 std::ostream& os) {
  const SpanNode& node = forest.spans.at(id);
  for (int i = 0; i < depth; ++i) os << "  ";
  os << obs::stage_name(node.stage) << " #" << node.id;
  if (node.begin_ts < 0) {
    os << " [begin lost";
    if (node.end_ts >= 0) os << ", end @" << node.end_ts << "us";
    os << "]";
  } else if (node.end_ts < 0) {
    os << " @" << node.begin_ts << "us [unfinished]";
  } else {
    os << " @" << node.begin_ts << "us +" << node.duration_us() << "us";
  }
  if (!node.ok) os << " FAILED";
  if (node.ref != 0) os << " ref=" << node.ref;
  if (node.wire_bytes != 0) os << " wire=" << node.wire_bytes << "B";
  if (node.chaos_us != 0) os << " chaos=+" << node.chaos_us << "us";
  os << "\n";
  for (const std::uint32_t child : node.children) {
    format_node(forest, child, depth + 1, os);
  }
}

}  // namespace

void format_summary(const obs::JsonlTrace& trace, const SpanForest& forest,
                    std::ostream& os) {
  os << "bentotrace summary: " << trace.events.size() << " events, "
     << forest.spans.size() << " spans, " << forest.roots.size() << " traces\n\n";
  format_stage_summary(forest, os);
  os << "\n";
  format_ttfb_table(forest, os);
  if (!forest.orphan_ends.empty() || !forest.unfinished.empty() ||
      forest.unparsed_lines > 0) {
    os << "\nintegrity: " << forest.orphan_ends.size() << " orphan ends, "
       << forest.unfinished.size() << " unfinished spans, " << forest.unparsed_lines
       << " unparsed lines\n";
  }
}

void format_tree(const SpanForest& forest, std::ostream& os) {
  std::size_t trace_no = 0;
  for (const std::uint32_t root : forest.roots) {
    os << "trace " << ++trace_no << ":\n";
    format_node(forest, root, 1, os);
  }
  if (!forest.orphan_ends.empty()) {
    os << "orphan ends (begin lost to ring wraparound): "
       << forest.orphan_ends.size() << "\n";
  }
  if (!forest.unfinished.empty()) {
    os << "unfinished spans (no end recorded): " << forest.unfinished.size()
       << "\n";
  }
  if (forest.unparsed_lines > 0) {
    os << "unparsed input lines: " << forest.unparsed_lines << "\n";
  }
}

// Percentiles everywhere in bentotrace are obs::slo_percentile — the same
// nearest-rank convention the SLO gates use, so a table can never disagree
// with the spec that gates it.
void format_stage_summary(const SpanForest& forest, std::ostream& os) {
  struct StageAgg {
    std::vector<std::int64_t> durations;
    std::size_t count = 0;
    std::size_t failed = 0;
    std::size_t incomplete = 0;
  };
  std::array<StageAgg, static_cast<std::size_t>(obs::Stage::kCount)> agg;
  for (const auto& [id, node] : forest.spans) {
    StageAgg& a = agg[static_cast<std::size_t>(node.stage)];
    ++a.count;
    if (!node.ok) ++a.failed;
    if (node.complete()) {
      a.durations.push_back(node.duration_us());
    } else {
      ++a.incomplete;
    }
  }
  os << "stage                count  fail  total_us    mean_us     p50_us    "
        " p95_us     max_us\n";
  for (std::size_t i = 0; i < agg.size(); ++i) {
    StageAgg& a = agg[i];
    if (a.count == 0) continue;
    std::sort(a.durations.begin(), a.durations.end());
    std::int64_t total = 0;
    for (const std::int64_t d : a.durations) total += d;
    const std::int64_t mean =
        a.durations.empty() ? 0
                            : total / static_cast<std::int64_t>(a.durations.size());
    lcol(os, obs::stage_name(static_cast<obs::Stage>(i)), 20);
    rcol(os, static_cast<std::int64_t>(a.count), 6);
    rcol(os, static_cast<std::int64_t>(a.failed), 6);
    rcol(os, total, 10);
    rcol(os, mean, 11);
    rcol(os, slo_percentile(a.durations, 50), 11);
    rcol(os, slo_percentile(a.durations, 95), 11);
    rcol(os, a.durations.empty() ? 0 : a.durations.back(), 11);
    if (a.incomplete > 0) os << "  (" << a.incomplete << " incomplete)";
    os << "\n";
  }
}

void format_ttfb_table(const SpanForest& forest, std::ostream& os) {
  auto table = [&os](const char* label,
                     const std::vector<std::pair<std::uint32_t, std::int64_t>>&
                         samples) {
    if (samples.empty()) {
      os << label << ": no samples\n";
      return;
    }
    std::map<std::uint32_t, std::vector<std::int64_t>> per_circuit;
    std::vector<std::int64_t> all;
    for (const auto& [circ, us] : samples) {
      per_circuit[circ].push_back(us);
      all.push_back(us);
    }
    os << label << " (us):\n";
    os << "  circuit   count     p50     p95     p99   p99.9     max\n";
    auto row = [&os](const std::string& key, std::vector<std::int64_t>& v) {
      std::sort(v.begin(), v.end());
      os << "  ";
      lcol(os, key, 8);
      rcol(os, static_cast<std::int64_t>(v.size()), 7);
      rcol(os, slo_percentile(v, 50), 8);
      rcol(os, slo_percentile(v, 95), 8);
      rcol(os, slo_percentile(v, 99), 8);
      rcol(os, slo_percentile(v, 99.9), 8);
      rcol(os, v.back(), 8);
      os << "\n";
    };
    for (auto& [circ, v] : per_circuit) row(std::to_string(circ), v);
    row("all", all);
  };
  table("ttfb", forest.ttfb);
  table("ttlb", forest.ttlb);
}

void export_chrome(const SpanForest& forest, std::ostream& os) {
  // One Chrome lane (tid) per trace, keyed by the root span's id. Async
  // b/e pairs draw the span bars; s/f flow events draw parent->child arrows
  // so cross-hop causality stays visible even when Chrome collapses lanes.
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&os, &first](const std::string& json) {
    if (!first) os << ",";
    first = false;
    os << "\n" << json;
  };
  for (const std::uint32_t root : forest.roots) {
    const std::uint32_t lane = root;
    std::vector<std::uint32_t> stack{root};
    while (!stack.empty()) {
      const std::uint32_t id = stack.back();
      stack.pop_back();
      const SpanNode& node = forest.spans.at(id);
      if (node.begin_ts >= 0) {
        const std::string name(obs::stage_name(node.stage));
        const std::string common = ",\"pid\":1,\"tid\":" + std::to_string(lane);
        emit("{\"name\":\"" + name + "\",\"cat\":\"span\",\"ph\":\"b\",\"id\":" +
             std::to_string(node.id) + common +
             ",\"ts\":" + std::to_string(node.begin_ts) +
             ",\"args\":{\"span\":" + std::to_string(node.id) +
             ",\"parent\":" + std::to_string(node.parent) +
             ",\"ok\":" + (node.ok ? "true" : "false") + "}}");
        const std::int64_t end_ts = node.end_ts >= 0 ? node.end_ts : node.begin_ts;
        emit("{\"name\":\"" + name + "\",\"cat\":\"span\",\"ph\":\"e\",\"id\":" +
             std::to_string(node.id) + common +
             ",\"ts\":" + std::to_string(end_ts) + "}");
        if (node.parent != 0) {
          auto parent_it = forest.spans.find(node.parent);
          if (parent_it != forest.spans.end() &&
              parent_it->second.begin_ts >= 0) {
            // Flow arrow: parent begin -> child begin.
            emit("{\"name\":\"causal\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":" +
                 std::to_string(node.id) + common +
                 ",\"ts\":" + std::to_string(parent_it->second.begin_ts) + "}");
            emit("{\"name\":\"causal\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":" +
                 std::to_string(node.id) + common +
                 ",\"ts\":" + std::to_string(node.begin_ts) + "}");
          }
        }
      }
      for (auto it = node.children.rbegin(); it != node.children.rend(); ++it) {
        stack.push_back(*it);
      }
    }
  }
  os << "\n]}\n";
}

}  // namespace bento::tools
