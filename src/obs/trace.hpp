// Flight recorder: a bounded ring of POD trace events in sim time
// (DESIGN.md §8).
//
// record() is the hot-path entry: one branch on the enabled flag, one mask
// test, then a fixed-size store into preallocated storage — no heap, no
// strings, no formatting. Memory is bounded by the capacity chosen at
// enable(); when the ring wraps, the *oldest* events are overwritten so a
// post-mortem always holds the newest window (hence "flight recorder").
//
// Events carry a kind, the sim timestamp, an ok/fail flag and two untyped
// operands (a: circuit/container/node id, b: bytes/lag/stream id — see the
// per-kind conventions next to Ev). Naming and structure are resolved at
// export time: to Chrome `trace_event` JSON (load in chrome://tracing or
// Perfetto) or to a JSONL stream (one event per line, byte-stable across
// identical seeded runs — the determinism regression diffs these), which
// read_jsonl() turns back into the same TraceEvents offline.
#pragma once

#include <cstdint>
#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string_view>
#include <vector>

#include "util/annotations.hpp"
#include "util/simclock.hpp"

namespace bento::obs {

/// Trace event kinds. Operand conventions in trailing comments.
enum class Ev : std::uint8_t {
  SimDispatch = 0,   // a: -            b: events pending after dispatch
  CircExtend,        // a: circ id      b: hop index just completed
  CircBuilt,         // a: circ id      b: hop count
  CircTeardown,      // a: circ id      b: -
  StreamOpen,        // a: circ id      b: stream id
  StreamTtfb,        // a: stream id    b: sim µs from open to first byte
  StreamTtlb,        // a: stream id    b: sim µs from open to last byte
  CellSend,          // a: circ id      b: relay command (origin send)
  CellRecv,          // a: circ id      b: receiving relay's node id
  CellRecognized,    // a: circ id      b: relay command
  CellUnrecognized,  // a: circ id      b: node id (edge violation / drop)
  FnUpload,          // a: container id b: function source bytes; flags: ok
  FnInvoke,          // a: container id b: payload bytes
  FnShutdown,        // a: container id b: -
  TokenCheck,        // a: container id b: token kind (0 invoke, 1 shutdown); flags: ok
  PolicyDeny,        // a: container id b: 0 manifest, 1 static verifier
  StemDeny,          // a: container id b: denial class (Recorder::kStem*)
  SpanBegin,         // a: span id      b: parent span id << 32 | Stage
  SpanEnd,           // a: span id      b: Stage; flags: ok
  SpanNote,          // a: span id      b: note kind << 32 | value (kNote*)
  SandboxNetDeny,    // a: dest IPv4    b: dest port
  SandboxSyscallDeny,  // a: Syscall    b: -
  SandboxResourceTrip, // a: -          b: resource class (kResource*)
  TeeAttest,         // a: platform id  b: quote TCB version; flags: ok
  TeeEpcPage,        // a: enclave id   b: page faults added by this allocate
  ChaosFault,        // a: node id      b: chaos::FaultKind << 32 | peer/extra
  ClientRetry,       // a: attempt #    b: backoff ms; flags: ok = will retry
  CircRebuild,       // a: new circ id (0 while pending) b: excluded relays
  LbFailover,        // a: replica idx  b: missed health checks; flags: ok
  ShardRepair,       // a: shard index  b: re-seed target ref; flags: ok
  kCount,
};

/// One row of a kind's name table (kEvNames, kStageNames). Kind i sits at
/// row i, which names_follow_enum() checks while compiling; the same row
/// gives a kind its name (ev_name, stage_name) and a name its kind
/// (kind_named).
template <typename Kind>
struct NameRow {
  Kind kind;
  const char* name;
};

template <typename Kind, std::size_t N>
consteval bool names_follow_enum(const NameRow<Kind> (&rows)[N]) {
  if (N != static_cast<std::size_t>(Kind::kCount)) return false;
  for (std::size_t i = 0; i < N; ++i) {
    const std::string_view name = rows[i].name;
    if (static_cast<std::size_t>(rows[i].kind) != i || name.empty()) return false;
    for (std::size_t j = 0; j < i; ++j) {
      if (name == rows[j].name) return false;
    }
  }
  return true;
}

/// The kind `rows` calls `name`, if any.
template <typename Kind, std::size_t N>
std::optional<Kind> kind_named(const NameRow<Kind> (&rows)[N], std::string_view name) {
  for (const NameRow<Kind>& row : rows) {
    if (name == row.name) return row.kind;
  }
  return std::nullopt;
}

/// Stable lower_snake names, written by both exporters and read back by
/// read_jsonl().
inline constexpr NameRow<Ev> kEvNames[] = {
    {Ev::SimDispatch, "sim.dispatch"},
    {Ev::CircExtend, "circuit.extend"},
    {Ev::CircBuilt, "circuit.built"},
    {Ev::CircTeardown, "circuit.teardown"},
    {Ev::StreamOpen, "stream.open"},
    {Ev::StreamTtfb, "stream.ttfb"},
    {Ev::StreamTtlb, "stream.ttlb"},
    {Ev::CellSend, "cell.send"},
    {Ev::CellRecv, "cell.recv"},
    {Ev::CellRecognized, "cell.recognized"},
    {Ev::CellUnrecognized, "cell.unrecognized"},
    {Ev::FnUpload, "fn.upload"},
    {Ev::FnInvoke, "fn.invoke"},
    {Ev::FnShutdown, "fn.shutdown"},
    {Ev::TokenCheck, "token.check"},
    {Ev::PolicyDeny, "policy.deny"},
    {Ev::StemDeny, "stem.deny"},
    {Ev::SpanBegin, "span.begin"},
    {Ev::SpanEnd, "span.end"},
    {Ev::SpanNote, "span.note"},
    {Ev::SandboxNetDeny, "sandbox.net_deny"},
    {Ev::SandboxSyscallDeny, "sandbox.syscall_deny"},
    {Ev::SandboxResourceTrip, "sandbox.resource_trip"},
    {Ev::TeeAttest, "tee.attest"},
    {Ev::TeeEpcPage, "tee.epc_page"},
    {Ev::ChaosFault, "chaos.fault"},
    {Ev::ClientRetry, "client.retry"},
    {Ev::CircRebuild, "circuit.rebuild"},
    {Ev::LbFailover, "lb.failover"},
    {Ev::ShardRepair, "shard.repair"},
};
static_assert(names_follow_enum(kEvNames),
              "kEvNames needs one row per Ev, in enum order, each name unique");

constexpr const char* ev_name(Ev kind) {
  return kEvNames[static_cast<std::size_t>(kind)].name;
}

struct TraceEvent {
  std::int64_t ts_us;
  std::uint64_t b;
  std::uint32_t a;
  Ev kind;
  std::uint8_t flags;  // bit 0: ok
};

class Recorder {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  // StemDeny `b` operand values.
  static constexpr std::uint64_t kStemCircuitCap = 0;
  static constexpr std::uint64_t kStemSyscall = 1;

  // SandboxResourceTrip `b` operand values.
  static constexpr std::uint64_t kResourceMemory = 0;
  static constexpr std::uint64_t kResourceCpu = 1;
  static constexpr std::uint64_t kResourceDisk = 2;
  static constexpr std::uint64_t kResourceNetwork = 3;
  static constexpr std::uint64_t kResourceFiles = 4;
  static constexpr std::uint64_t kResourceConnections = 5;

  /// Starts (or restarts) recording into a fresh ring of `capacity` events.
  /// The one place the recorder allocates.
  void enable(std::size_t capacity = kDefaultCapacity);
  void disable();
  bool enabled() const { return enabled_; }

  /// Per-kind filter; bit i gates Ev(i). Default: everything on. Use
  /// mask_of() to build masks, e.g. to silence the SimDispatch firehose.
  /// 64-bit since the kind count outgrew 32 (static_assert below).
  void set_mask(std::uint64_t mask) { mask_ = mask; }
  std::uint64_t mask() const { return mask_; }
  static constexpr std::uint64_t mask_of(Ev kind) {
    return std::uint64_t{1} << static_cast<unsigned>(kind);
  }
  static constexpr std::uint64_t mask_all() {
    static_assert(static_cast<unsigned>(Ev::kCount) < 64,
                  "trace mask is a 64-bit kind bitmap");
    return (std::uint64_t{1} << static_cast<unsigned>(Ev::kCount)) - 1;
  }

  BENTO_HOT void record(Ev kind, std::uint32_t a = 0, std::uint64_t b = 0, bool ok = true) {
    if (!enabled_) return;
    if ((mask_ & mask_of(kind)) == 0) return;
    TraceEvent& e = ring_[head_];
    e.ts_us = util::sim_now_micros();
    e.b = b;
    e.a = a;
    e.kind = kind;
    e.flags = ok ? 1 : 0;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    if (size_ < ring_.size()) {
      ++size_;
    } else {
      ++overwritten_;
    }
    ++recorded_;
  }

  /// Events currently held (≤ capacity).
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return ring_.size(); }
  /// Total record() calls accepted since enable().
  std::uint64_t recorded() const { return recorded_; }
  /// Events lost to ring wraparound.
  std::uint64_t overwritten() const { return overwritten_; }
  /// Bumped by every enable(); span id allocation (span.hpp) keys off this
  /// so seeded reruns hand out identical ids after re-enabling the ring.
  std::uint64_t generation() const { return generation_; }

  /// Held events, oldest first (insertion order == sim-time order, since
  /// recording happens as the simulation advances).
  std::vector<TraceEvent> events() const;

  /// Chrome trace_event JSON ({"traceEvents": [...]}); instant events on
  /// one lane per subsystem, timestamps in sim microseconds.
  void export_chrome_trace(std::ostream& os) const;
  /// One compact JSON object per line; byte-stable for identical runs.
  /// read_jsonl() below reads it back.
  void export_jsonl(std::ostream& os) const;

 private:
  template <typename Fn>
  void for_each(Fn&& fn) const;  // oldest -> newest

  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t overwritten_ = 0;
  std::uint64_t generation_ = 0;
  std::uint64_t mask_ = mask_all();
  bool enabled_ = false;
};

namespace detail {
// Constant-initialized (all members have constexpr default ctors), so
// trace() is safe from any static-init context.
inline Recorder g_recorder;
}  // namespace detail

inline Recorder& recorder() { return detail::g_recorder; }

/// Parses one export_jsonl() line: `{"ts":..,"ev":"..","a":..,"b":..,"ok":..}`
/// in exactly that shape, naming a kind of kEvNames. nullopt for anything
/// else, so a corrupted dump is reported instead of half-read.
std::optional<TraceEvent> parse_jsonl_line(std::string_view line);

/// An export_jsonl() stream read back.
struct JsonlTrace {
  std::vector<TraceEvent> events;
  std::size_t unparsed = 0;  // non-blank lines parse_jsonl_line() refused
};

JsonlTrace read_jsonl(std::istream& is);

/// Convenience hot-path entry: obs::trace(Ev::CellSend, circ, cmd).
BENTO_HOT inline void trace(Ev kind, std::uint32_t a = 0, std::uint64_t b = 0, bool ok = true) {
  detail::g_recorder.record(kind, a, b, ok);
}

}  // namespace bento::obs
