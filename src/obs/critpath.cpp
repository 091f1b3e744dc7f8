#include "obs/critpath.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

namespace bento::obs {

namespace {

std::string stage_token(Stage stage) {
  std::string name(stage_name(stage));
  for (char& c : name) {
    if (c == '.') c = '_';
  }
  return name;
}

/// "8333" -> "83.33": x100 fixed-point percent, integer arithmetic only.
std::string pct_x100(std::int64_t bp) {
  std::string out = std::to_string(bp / 100) + ".";
  const std::int64_t frac = bp < 0 ? -(bp % 100) : bp % 100;
  if (frac < 10) out += '0';
  out += std::to_string(frac);
  return out;
}

}  // namespace

std::string segment_name(Stage stage, SegKind kind) {
  switch (kind) {
    case SegKind::Exec: return stage_token(stage);
    case SegKind::Wait: return stage_token(stage) + "_wait";
    case SegKind::LinkQueue: return stage_token(stage) + "_queue";
    case SegKind::LinkTransit: return stage_token(stage) + "_transit";
    case SegKind::ChaosDwell: return "chaos_dwell";
  }
  return "unknown";
}

CritReport compute_critical_paths(const SpanForest& forest) {
  CritReport out;
  // One flattened subtree interval. The span hierarchy is causal, not
  // containment: children routinely outlive their (often instantaneous)
  // parents, so depth comes from the tree while intervals are taken at face
  // value and clamped to the root's window.
  struct Flat {
    const SpanNode* s = nullptr;
    std::int64_t b = 0;
    std::int64_t e = 0;
    std::int64_t first_child_b = std::numeric_limits<std::int64_t>::max();
    int depth = 0;
  };
  constexpr std::size_t kNoFlat = std::numeric_limits<std::size_t>::max();
  struct Visit {
    std::uint32_t id;
    int depth;
    std::size_t parent_flat;  // kNoFlat: the parent takes no blame
  };
  std::vector<Flat> flats;
  std::vector<Visit> stack;
  std::vector<std::int64_t> pts;
  std::vector<std::int64_t> link_us;

  for (const std::uint32_t rid : forest.roots) {
    const SpanNode& root = forest.spans.at(rid);
    if (root.parent != 0) continue;  // promoted orphan subtree: no request
    if (root.begin_ts < 0 || root.end_ts < root.begin_ts) {
      ++out.incomplete;
      continue;
    }
    const std::int64_t rb = root.begin_ts;
    const std::int64_t re = root.end_ts;

    flats.clear();
    stack.assign(1, Visit{rid, 0, kNoFlat});
    while (!stack.empty()) {
      const Visit v = stack.back();
      stack.pop_back();
      const SpanNode& s = forest.spans.at(v.id);
      const std::int64_t b = std::max(s.begin_ts, rb);
      const std::int64_t e = std::min(s.end_ts < 0 ? re : s.end_ts, re);
      // A wraparound stub or a span outside the window takes no blame, but
      // its subtree still can.
      std::size_t self = kNoFlat;
      if (s.begin_ts >= 0 && e >= b) {
        self = flats.size();
        flats.push_back(Flat{&s, b, e, std::numeric_limits<std::int64_t>::max(),
                             v.depth});
        if (v.parent_flat != kNoFlat) {
          Flat& parent = flats[v.parent_flat];
          parent.first_child_b = std::min(parent.first_child_b, b);
        }
      }
      for (const std::uint32_t kid : s.children) {
        stack.push_back(Visit{kid, v.depth + 1, self});
      }
    }

    // Elementary intervals: every clamped span boundary.
    pts.clear();
    for (const Flat& f : flats) {
      pts.push_back(f.b);
      pts.push_back(f.e);
    }
    std::sort(pts.begin(), pts.end());
    pts.erase(std::unique(pts.begin(), pts.end()), pts.end());

    RequestBlame req;
    req.root_id = rid;
    req.ref = root.ref;
    req.begin_us = rb;
    req.total_us = re - rb;
    req.ok = root.ok;

    std::map<std::pair<Stage, SegKind>, std::int64_t> acc;
    link_us.assign(flats.size(), 0);
    for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
      const std::int64_t t0 = pts[i];
      const std::int64_t t1 = pts[i + 1];
      // Winner: the deepest span covering the interval; ties go to the
      // latest begin, then the highest id — the most recently dispatched
      // work. The root always covers, so every microsecond lands somewhere.
      const Flat* w = nullptr;
      std::size_t wi = 0;
      for (std::size_t j = 0; j < flats.size(); ++j) {
        const Flat& f = flats[j];
        if (f.b > t0 || f.e < t1) continue;
        if (w == nullptr || std::tuple(f.depth, f.b, f.s->id) >
                                std::tuple(w->depth, w->b, w->s->id)) {
          w = &f;
          wi = j;
        }
      }
      if (w == nullptr) continue;  // unreachable: the root covers [rb, re]
      const std::int64_t dt = t1 - t0;
      if (w->s->stage == Stage::NetLink) {
        link_us[wi] += dt;  // split into queue/transit/chaos below
        continue;
      }
      const SegKind kind = t0 >= w->first_child_b ? SegKind::Wait : SegKind::Exec;
      acc[{w->s->stage, kind}] += dt;
    }
    // Split each link's attributed time using the budget notes the network
    // stamped at send time: fault dwell first (so an injected throttle
    // surfaces even on a partially-attributed link), then the uncontended
    // transit budget, with the remainder as queue contention. The clamps
    // keep the request sum exact even when a note is missing.
    for (std::size_t j = 0; j < flats.size(); ++j) {
      const std::int64_t a = link_us[j];
      if (a <= 0) continue;
      const SpanNode& s = *flats[j].s;
      const std::int64_t chaos =
          std::min(std::max<std::int64_t>(s.chaos_us, 0), a);
      const std::int64_t transit =
          std::min(std::max<std::int64_t>(s.idle_us, 0), a - chaos);
      const std::int64_t queue = a - chaos - transit;
      if (chaos > 0) acc[{Stage::NetLink, SegKind::ChaosDwell}] += chaos;
      if (transit > 0) acc[{Stage::NetLink, SegKind::LinkTransit}] += transit;
      if (queue > 0) acc[{Stage::NetLink, SegKind::LinkQueue}] += queue;
    }
    req.segs.reserve(acc.size());
    for (const auto& [key, us] : acc) {
      req.segs.push_back(BlameSeg{key.first, key.second, us});
    }
    out.requests.push_back(std::move(req));
  }
  return out;
}

BlameProfile aggregate_blame(const CritReport& report) {
  BlameProfile p;
  p.incomplete = report.incomplete;
  p.requests = report.requests.size();
  std::vector<std::int64_t> totals;
  totals.reserve(report.requests.size());
  for (const RequestBlame& r : report.requests) {
    totals.push_back(r.total_us);
    p.sum_us += r.total_us;
  }
  p.p50_us = slo_percentile(totals, 50);
  p.p99_us = slo_percentile(totals, 99);
  p.p999_us = slo_percentile(totals, 99.9);

  struct Agg {
    std::uint64_t requests = 0;
    std::int64_t total = 0;
    std::int64_t body = 0;
    std::int64_t tail = 0;
  };
  std::map<std::string, Agg> cells;
  std::int64_t body_sum = 0;
  std::int64_t tail_sum = 0;
  std::map<std::string, std::int64_t> mine;
  for (const RequestBlame& r : report.requests) {
    const bool body = r.total_us <= p.p50_us;
    const bool tail = r.total_us >= p.p99_us;
    if (body) {
      ++p.body_n;
      body_sum += r.total_us;
    }
    if (tail) {
      ++p.tail_n;
      tail_sum += r.total_us;
    }
    mine.clear();
    for (const BlameSeg& seg : r.segs) mine[segment_name(seg.stage, seg.kind)] += seg.us;
    for (const auto& [name, us] : mine) {
      Agg& a = cells[name];
      ++a.requests;
      a.total += us;
      if (body) a.body += us;
      if (tail) a.tail += us;
    }
  }
  if (p.body_n > 0) p.body_mean_us = body_sum / static_cast<std::int64_t>(p.body_n);
  if (p.tail_n > 0) p.tail_mean_us = tail_sum / static_cast<std::int64_t>(p.tail_n);

  const auto n = static_cast<std::int64_t>(p.requests);
  for (const auto& [name, a] : cells) {
    BlameProfile::Row row;
    row.seg = name;
    row.requests = a.requests;
    row.total_us = a.total;
    row.mean_us = n > 0 ? a.total / n : 0;
    row.body_mean_us = p.body_n > 0 ? a.body / static_cast<std::int64_t>(p.body_n) : 0;
    row.tail_mean_us = p.tail_n > 0 ? a.tail / static_cast<std::int64_t>(p.tail_n) : 0;
    p.rows.push_back(std::move(row));
  }
  // Total blame descending, ties by name (the map already sorted by name).
  std::stable_sort(p.rows.begin(), p.rows.end(),
                   [](const BlameProfile::Row& x, const BlameProfile::Row& y) {
                     return x.total_us > y.total_us;
                   });
  return p;
}

std::string BlameProfile::top_segment() const {
  return rows.empty() ? std::string() : rows.front().seg;
}

void BlameProfile::to_json(std::ostream& os) const {
  os << "{\"critpath\":{\"requests\":" << requests
     << ",\"incomplete\":" << incomplete << ",\"total_us\":{\"sum\":" << sum_us
     << ",\"p50\":" << p50_us << ",\"p99\":" << p99_us
     << ",\"p99_9\":" << p999_us << "},\"cohorts\":{\"body_n\":" << body_n
     << ",\"body_mean_us\":" << body_mean_us << ",\"tail_n\":" << tail_n
     << ",\"tail_mean_us\":" << tail_mean_us << "},\"top\":\"" << top_segment()
     << "\",\"segments\":[";
  bool first = true;
  for (const Row& r : rows) {
    if (!first) os << ",";
    first = false;
    const std::int64_t share = sum_us > 0 ? r.total_us * 10000 / sum_us : 0;
    os << "{\"seg\":\"" << r.seg << "\",\"region\":\"all\",\"requests\":"
       << r.requests << ",\"total_us\":" << r.total_us
       << ",\"share_x100\":" << share << ",\"mean_us\":" << r.mean_us
       << ",\"body_mean_us\":" << r.body_mean_us
       << ",\"tail_mean_us\":" << r.tail_mean_us << "}";
  }
  os << "]}}\n";
}

std::string BlameProfile::to_json() const {
  std::ostringstream ss;
  to_json(ss);
  return ss.str();
}

std::string BlameProfile::to_string() const {
  std::ostringstream os;
  os << "critical-path blame: " << requests << " requests";
  if (incomplete > 0) os << " (" << incomplete << " incomplete dropped)";
  os << ", " << sum_us << " us attributed\n";
  os << "ttlb: p50=" << p50_us << "us p99=" << p99_us << "us p99.9=" << p999_us
     << "us | body n=" << body_n << " mean=" << body_mean_us
     << "us | tail n=" << tail_n << " mean=" << tail_mean_us << "us\n";
  if (rows.empty()) return std::move(os).str();
  os << "segment                          req      total_us  share%  "
        "  mean_us  body_mean  tail_mean\n";
  for (const Row& r : rows) {
    const std::int64_t share = sum_us > 0 ? r.total_us * 10000 / sum_us : 0;
    lcol(os, r.seg, 30);
    rcol(os, static_cast<std::int64_t>(r.requests), 6);
    rcol(os, r.total_us, 14);
    rcol(os, pct_x100(share), 8);
    rcol(os, r.mean_us, 11);
    rcol(os, r.body_mean_us, 11);
    rcol(os, r.tail_mean_us, 11);
    os << "\n";
  }
  return std::move(os).str();
}

void add_critpath_series(const CritReport& report, SloInput& input) {
  std::map<std::string, bool> seen;
  for (const RequestBlame& r : report.requests) {
    for (const BlameSeg& s : r.segs) seen[segment_name(s.stage, s.kind)] = true;
  }
  std::map<std::string, std::int64_t> mine;
  for (const RequestBlame& r : report.requests) {
    input.add_sample("critpath.total_us", r.total_us);
    mine.clear();
    for (const BlameSeg& s : r.segs) mine[segment_name(s.stage, s.kind)] += s.us;
    for (const auto& [name, present] : seen) {
      (void)present;
      const auto it = mine.find(name);
      input.add_sample("critpath." + name + "_us",
                       it == mine.end() ? 0 : it->second);
    }
  }
}

SloReport evaluate_trace_slos(const SpanForest& forest,
                              const std::vector<SloSpec>& specs) {
  SloInput input;
  for (const auto& [stream, us] : forest.ttfb) input.add_sample("ttfb_us", us);
  for (const auto& [stream, us] : forest.ttlb) input.add_sample("ttlb_us", us);
  // critpath.* metrics (e.g. "critpath.net_link_queue_us:p99<=...") run the
  // analyzer only when a spec actually asks, so plain latency gates stay
  // O(spans).
  for (const SloSpec& spec : specs) {
    if (spec.metric.rfind("critpath.", 0) == 0) {
      add_critpath_series(compute_critical_paths(forest), input);
      break;
    }
  }
  return evaluate_slos("trace", specs, input);
}

bool BlameDiff::regressed() const {
  for (const Row& r : rows) {
    if (r.regressed) return true;
  }
  return false;
}

BlameDiff diff_blame(const BlameProfile& a, const BlameProfile& b) {
  BlameDiff d;
  d.a_requests = a.requests;
  d.b_requests = b.requests;
  // a_mean, a_tail, b_mean, b_tail per segment.
  std::map<std::string, std::array<std::int64_t, 4>> cells;
  for (const BlameProfile::Row& r : a.rows) {
    cells[r.seg][0] = r.mean_us;
    cells[r.seg][1] = r.tail_mean_us;
  }
  for (const BlameProfile::Row& r : b.rows) {
    cells[r.seg][2] = r.mean_us;
    cells[r.seg][3] = r.tail_mean_us;
  }
  const auto worse = [](std::int64_t x, std::int64_t y) {
    return y - x > kDiffFloorUs && y * 100 > x * (100 + kDiffThresholdPct);
  };
  for (const auto& [seg, m] : cells) {
    BlameDiff::Row row;
    row.seg = seg;
    row.a_mean_us = m[0];
    row.b_mean_us = m[2];
    row.a_tail_mean_us = m[1];
    row.b_tail_mean_us = m[3];
    row.regressed = worse(m[0], m[2]) || worse(m[1], m[3]);
    d.rows.push_back(std::move(row));
  }
  return d;
}

std::string BlameDiff::to_string() const {
  std::ostringstream os;
  os << "critpath diff: a=" << a_requests << " req, b=" << b_requests
     << " req, threshold " << kDiffThresholdPct << "% floor " << kDiffFloorUs
     << "us -> " << (regressed() ? "REGRESSED" : "ok") << "\n";
  if (rows.empty()) return std::move(os).str();
  os << "segment                        a_mean_us  b_mean_us      delta  "
        "a_tail_us  b_tail_us tail_delta  verdict\n";
  for (const Row& r : rows) {
    lcol(os, r.seg, 30);
    rcol(os, r.a_mean_us, 10);
    rcol(os, r.b_mean_us, 11);
    rcol(os, r.b_mean_us - r.a_mean_us, 11);
    rcol(os, r.a_tail_mean_us, 11);
    rcol(os, r.b_tail_mean_us, 11);
    rcol(os, r.b_tail_mean_us - r.a_tail_mean_us, 11);
    os << "  " << (r.regressed ? "REGRESSED" : "ok") << "\n";
  }
  return std::move(os).str();
}

}  // namespace bento::obs
