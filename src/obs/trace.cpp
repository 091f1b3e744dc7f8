#include "obs/trace.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <string>

namespace bento::obs {

namespace {
// Chrome renders one horizontal lane per (pid, tid); group events by
// subsystem so the sim firehose does not bury the application story.
int lane_of(Ev kind) {
  switch (kind) {
    case Ev::SimDispatch:
    case Ev::ChaosFault: return 0;  // sim
    case Ev::CircExtend:
    case Ev::CircRebuild:
    case Ev::CircBuilt:
    case Ev::CircTeardown:
    case Ev::StreamOpen:
    case Ev::StreamTtfb:
    case Ev::StreamTtlb:
    case Ev::CellSend:
    case Ev::CellRecv:
    case Ev::CellRecognized:
    case Ev::CellUnrecognized: return 1;  // tor
    default: return 2;                    // core / bento
  }
}
}  // namespace

void Recorder::enable(std::size_t capacity) {
  if (capacity == 0) capacity = 1;
  ring_.assign(capacity, TraceEvent{});
  head_ = 0;
  size_ = 0;
  recorded_ = 0;
  overwritten_ = 0;
  ++generation_;
  enabled_ = true;
}

void Recorder::disable() { enabled_ = false; }

template <typename Fn>
void Recorder::for_each(Fn&& fn) const {
  // Oldest event: `head_` when full (head points at the next overwrite
  // victim), index 0 otherwise.
  const std::size_t start = size_ == ring_.size() ? head_ : 0;
  for (std::size_t i = 0; i < size_; ++i) {
    std::size_t idx = start + i;
    if (idx >= ring_.size()) idx -= ring_.size();
    fn(ring_[idx]);
  }
}

std::vector<TraceEvent> Recorder::events() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  for_each([&out](const TraceEvent& e) { out.push_back(e); });
  return out;
}

void Recorder::export_chrome_trace(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  static const char* kLaneNames[] = {"sim", "tor", "bento"};
  for (int lane = 0; lane < 3; ++lane) {
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << lane
       << ",\"args\":{\"name\":\"" << kLaneNames[lane] << "\"}},\n";
  }
  bool first = true;
  for_each([&](const TraceEvent& e) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"" << ev_name(e.kind) << "\",\"ph\":\"i\",\"s\":\"t\""
       << ",\"pid\":1,\"tid\":" << lane_of(e.kind) << ",\"ts\":" << e.ts_us
       << ",\"args\":{\"a\":" << e.a << ",\"b\":" << e.b
       << ",\"ok\":" << (e.flags & 1 ? "true" : "false") << "}}";
  });
  os << "\n]}\n";
}

void Recorder::export_jsonl(std::ostream& os) const {
  for_each([&os](const TraceEvent& e) {
    os << "{\"ts\":" << e.ts_us << ",\"ev\":\"" << ev_name(e.kind)
       << "\",\"a\":" << e.a << ",\"b\":" << e.b
       << ",\"ok\":" << (e.flags & 1 ? 1 : 0) << "}\n";
  });
}

namespace {

// Field scanners for export_jsonl()'s fixed shape. Not a general JSON
// parser on purpose: one object per line, keys ts/ev/a/b/ok in that order.
bool skip_literal(std::string_view& s, std::string_view lit) {
  if (s.substr(0, lit.size()) != lit) return false;
  s.remove_prefix(lit.size());
  return true;
}

template <typename Int>
bool take_int(std::string_view& s, Int& out) {
  const char* begin = s.data();
  const auto [ptr, ec] = std::from_chars(begin, begin + s.size(), out);
  if (ec != std::errc{} || ptr == begin) return false;
  s.remove_prefix(static_cast<std::size_t>(ptr - begin));
  return true;
}

bool take_kind(std::string_view& s, Ev& out) {
  if (s.empty() || s.front() != '"') return false;
  const std::size_t close = s.find('"', 1);
  if (close == std::string_view::npos) return false;
  const std::optional<Ev> kind = kind_named(kEvNames, s.substr(1, close - 1));
  if (!kind) return false;
  out = *kind;
  s.remove_prefix(close + 1);
  return true;
}

}  // namespace

std::optional<TraceEvent> parse_jsonl_line(std::string_view line) {
  while (!line.empty() && (line.back() == '\r' || line.back() == '\n')) {
    line.remove_suffix(1);
  }
  TraceEvent ev{};
  int ok = 0;
  if (!skip_literal(line, "{\"ts\":") || !take_int(line, ev.ts_us) ||
      !skip_literal(line, ",\"ev\":") || !take_kind(line, ev.kind) ||
      !skip_literal(line, ",\"a\":") || !take_int(line, ev.a) ||
      !skip_literal(line, ",\"b\":") || !take_int(line, ev.b) ||
      !skip_literal(line, ",\"ok\":") || !take_int(line, ok) ||
      !skip_literal(line, "}") || !line.empty()) {
    return std::nullopt;
  }
  ev.flags = ok != 0 ? 1 : 0;
  return ev;
}

JsonlTrace read_jsonl(std::istream& is) {
  JsonlTrace out;
  std::string line;
  while (std::getline(is, line)) {
    if (const std::optional<TraceEvent> ev = parse_jsonl_line(line)) {
      out.events.push_back(*ev);
    } else if (!line.empty()) {
      ++out.unparsed;
    }
  }
  return out;
}

}  // namespace bento::obs
