#include "obs/trace.hpp"

#include <ostream>
#include <string_view>

namespace bento::obs {

const char* ev_name(Ev kind) {
  switch (kind) {
    case Ev::SimDispatch: return "sim.dispatch";
    case Ev::CircExtend: return "circuit.extend";
    case Ev::CircBuilt: return "circuit.built";
    case Ev::CircTeardown: return "circuit.teardown";
    case Ev::StreamOpen: return "stream.open";
    case Ev::StreamTtfb: return "stream.ttfb";
    case Ev::StreamTtlb: return "stream.ttlb";
    case Ev::CellSend: return "cell.send";
    case Ev::CellRecv: return "cell.recv";
    case Ev::CellRecognized: return "cell.recognized";
    case Ev::CellUnrecognized: return "cell.unrecognized";
    case Ev::FnUpload: return "fn.upload";
    case Ev::FnInvoke: return "fn.invoke";
    case Ev::FnShutdown: return "fn.shutdown";
    case Ev::TokenCheck: return "token.check";
    case Ev::PolicyDeny: return "policy.deny";
    case Ev::StemDeny: return "stem.deny";
    case Ev::SpanBegin: return "span.begin";
    case Ev::SpanEnd: return "span.end";
    case Ev::SpanNote: return "span.note";
    case Ev::SandboxNetDeny: return "sandbox.net_deny";
    case Ev::SandboxSyscallDeny: return "sandbox.syscall_deny";
    case Ev::SandboxResourceTrip: return "sandbox.resource_trip";
    case Ev::TeeAttest: return "tee.attest";
    case Ev::TeeEpcPage: return "tee.epc_page";
    case Ev::ChaosFault: return "chaos.fault";
    case Ev::ClientRetry: return "client.retry";
    case Ev::CircRebuild: return "circuit.rebuild";
    case Ev::LbFailover: return "lb.failover";
    case Ev::ShardRepair: return "shard.repair";
    case Ev::kCount: break;
  }
  return "unknown";
}

bool ev_names_complete() {
  for (unsigned i = 0; i < static_cast<unsigned>(Ev::kCount); ++i) {
    const char* name = ev_name(static_cast<Ev>(i));
    if (name == nullptr || name[0] == '\0') return false;
    // ev_name falls through to "unknown" for kinds without a case label.
    if (name[0] == 'u' && std::string_view(name) == "unknown") return false;
  }
  return true;
}

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

}  // namespace bento::obs
