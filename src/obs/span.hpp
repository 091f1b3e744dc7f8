// Causal span tracing (DESIGN.md §8): a 64-bit trace-id/span-id context that
// follows one request across the client, every relay hop, the conclave and
// the Stem firewall.
//
// The context is *sidecar* state: it never touches the 509-byte wire format.
// The simulator captures the current context into every scheduled event and
// restores it around dispatch (simulator.hpp), and sim::Network pins it to
// each queued packet, so causality survives timer delays, link queues and
// the conclave ecall overhead without any layer passing it explicitly.
//
// Spans are recorded into the flight-recorder ring as three POD event kinds
// (SpanBegin / SpanEnd / SpanNote) — same 24-byte events, same 0-alloc
// record() hot path, same wraparound semantics. Tree structure lives in the
// operands (SpanBegin.b packs the parent id and stage) and is reconstructed
// offline by build_forest() (obs/forest.hpp).
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/trace.hpp"

namespace bento::obs {

/// Pipeline stages a request crosses; each span is tagged with one. Stable
/// names come from kStageNames and are what bentotrace aggregates by.
enum class Stage : std::uint8_t {
  None = 0,
  ClientConnect,   // circuit build + Bento stream open to the box
  ClientSpawn,     // spawn request -> SpawnReply (incl. attestation)
  ClientUpload,    // sealed upload -> UploadReply (tokens)
  ClientInvoke,    // invoke -> first Output back at the client
  ClientShutdown,  // shutdown -> Ok
  NetLink,         // one network transit: queue wait + serialize + propagate
  RelayForward,    // per-cell relay processing: crypt + recognition + route
  ServerHandle,    // BentoServer handling one Bento message
  FnDispatch,      // server -> function routing; conclave ecall transition
  FnExecute,       // function code running inside the sandbox
  StemMediate,     // Stem firewall mediating one control-plane call
  Attest,          // spawn-time remote attestation round
  StoreAppend,     // sealed blob store: frame sealed + committed to the log
  StoreCompact,    // sealed blob store: background segment compaction run
  StoreReplay,     // sealed blob store: crash-consistent log replay
  kCount,
};

/// Stable lower_snake stage names ("client.invoke", "net.link", ...).
inline constexpr NameRow<Stage> kStageNames[] = {
    {Stage::None, "none"},
    {Stage::ClientConnect, "client.connect"},
    {Stage::ClientSpawn, "client.spawn"},
    {Stage::ClientUpload, "client.upload"},
    {Stage::ClientInvoke, "client.invoke"},
    {Stage::ClientShutdown, "client.shutdown"},
    {Stage::NetLink, "net.link"},
    {Stage::RelayForward, "relay.forward"},
    {Stage::ServerHandle, "server.handle"},
    {Stage::FnDispatch, "fn.dispatch"},
    {Stage::FnExecute, "fn.execute"},
    {Stage::StemMediate, "stem.mediate"},
    {Stage::Attest, "attest"},
    {Stage::StoreAppend, "store.append"},
    {Stage::StoreCompact, "store.compact"},
    {Stage::StoreReplay, "store.replay"},
};
static_assert(names_follow_enum(kStageNames),
              "kStageNames needs one row per Stage, in enum order, each name unique");

constexpr const char* stage_name(Stage stage) {
  return kStageNames[static_cast<std::size_t>(stage)].name;
}

/// SpanNote note kinds (high 32 bits of SpanNote.b).
inline constexpr std::uint32_t kNoteRef = 0;        // circuit/container/node id
inline constexpr std::uint32_t kNoteWireBytes = 1;  // message size on the wire
inline constexpr std::uint32_t kNoteChaos = 2;      // injected chaos::FaultKind
// Per-link budget notes stamped by sim::Network at send time, consumed by
// the offline critical-path analyzer (obs/critpath.hpp, DESIGN.md §14):
// the uncontended transit µs at spec bandwidth (serialize + propagate) and
// the fault-added dwell µs (throttled serialization + injected delay).
inline constexpr std::uint32_t kNoteLinkIdle = 3;   // idle transit budget, µs
inline constexpr std::uint32_t kNoteChaosDwell = 4; // fault-added dwell, µs

/// The propagated context: which request (trace) and which span is the
/// causal parent of whatever happens next. 64 bits total, trivially
/// copyable, zero-initialized == "no active request".
struct SpanContext {
  std::uint32_t trace_id = 0;
  std::uint32_t span_id = 0;
  constexpr bool active() const { return span_id != 0; }
};

namespace detail {
inline SpanContext g_current_span{};
inline std::uint32_t g_next_span_id = 1;
// Matches Recorder::generation(); a mismatch resets the id counter so seeded
// reruns that re-enable() the ring allocate identical span ids.
inline std::uint64_t g_span_generation = 0;
}  // namespace detail

/// Context the next scheduled event / sent packet will inherit.
inline SpanContext current_span() { return detail::g_current_span; }
inline void set_current_span(SpanContext ctx) { detail::g_current_span = ctx; }

/// Drops the active context and restarts span id allocation. enable()ing
/// the recorder implies this (via the generation check in span_alloc_id).
inline void reset_spans() {
  detail::g_current_span = SpanContext{};
  detail::g_next_span_id = 1;
}

/// True when spans would actually land in the ring; begin/end collapse to a
/// couple of loads when this is false.
inline bool span_tracing_enabled() {
  const Recorder& r = recorder();
  return r.enabled() && (r.mask() & Recorder::mask_of(Ev::SpanBegin)) != 0;
}

namespace detail {
inline std::uint32_t span_alloc_id() {
  const std::uint64_t gen = recorder().generation();
  if (g_span_generation != gen) {
    g_span_generation = gen;
    reset_spans();
  }
  return g_next_span_id++;
}
}  // namespace detail

/// Records a begin for a child of the current context without making it
/// current. Returns the new span id, or 0 when tracing is off or no request
/// context is active (callers treat 0 as "no span", all other entry points
/// accept it silently).
std::uint32_t open_span(Stage stage, std::uint32_t ref = 0);

/// Ends a span by id. The stage is recorded redundantly so wraparound- or
/// teardown-orphaned ends still attribute to a stage. No-op for id 0.
void end_span(std::uint32_t span_id, Stage stage, bool ok = true);

/// Attaches a numeric annotation to a span. No-op for id 0.
void span_note(std::uint32_t span_id, std::uint32_t note_kind, std::uint32_t value);

/// RAII span: begins on construction, becomes the current context, ends and
/// restores the previous context on destruction.
///
/// Two construction modes:
///  - child (default): inert unless a request context is already active —
///    instrumentation sprinkled through relays and servers costs nothing
///    for traffic nobody asked to trace;
///  - root (kRoot tag): starts a new trace when no context is active (the
///    client-side request origin). Under an active context it degrades to a
///    child, so nested client calls still form one tree.
///
/// detach() keeps the span open past the scope for async completions; the
/// holder ends it later with end_span(id, stage, ok).
class SpanScope {
 public:
  struct RootTag {};
  static constexpr RootTag kRoot{};

  explicit SpanScope(Stage stage, std::uint32_t ref = 0) : stage_(stage) {
    prev_ = current_span();
    if (!prev_.active() || !span_tracing_enabled()) return;
    begin(prev_.trace_id, prev_.span_id, ref);
  }

  SpanScope(RootTag, Stage stage, std::uint32_t ref = 0) : stage_(stage) {
    prev_ = current_span();
    if (!span_tracing_enabled()) return;
    if (prev_.active()) {
      begin(prev_.trace_id, prev_.span_id, ref);
    } else {
      begin(0, 0, ref);
    }
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  ~SpanScope() {
    if (id_ == 0) return;
    set_current_span(prev_);
    if (!detached_) end_span(id_, stage_, ok_);
  }

  std::uint32_t id() const { return id_; }
  void set_ok(bool ok) { ok_ = ok; }

  /// Leaves the span open past this scope (the previous context is still
  /// restored). Returns the id to pass to end_span() later.
  std::uint32_t detach() {
    detached_ = true;
    return id_;
  }

 private:
  void begin(std::uint32_t trace_id, std::uint32_t parent, std::uint32_t ref);

  SpanContext prev_{};
  std::uint32_t id_ = 0;
  Stage stage_;
  bool ok_ = true;
  bool detached_ = false;
};

}  // namespace bento::obs
