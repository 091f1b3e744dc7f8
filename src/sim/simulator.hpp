// Discrete-event simulation engine: one event loop (DESIGN.md §12).
//
// Deterministic: all randomness flows from the seed given at construction,
// and events fire in (when, seq) order — seq is the scheduling order, so
// same-timestamp events run FIFO. The order is a strict total order and a
// function of the logical event graph alone, which makes a run a pure
// function of (seed, topology, chaos plan). Everything above (network, Tor
// overlay, Bento, experiment harnesses) is written against this clock rather
// than wall time.
//
// Event datapath: scheduling a handler used to box a std::function into a
// std::priority_queue, which heap-allocates for every capture larger than
// the libstdc++ SBO (16 bytes — i.e. for essentially every real handler).
// EventFn below is a move-only callable with 64 bytes of inline storage,
// sized so the common captures (this + a Packet, this + a couple of words)
// stay inline; larger captures fall back to the simulator's slab pool, so
// steady-state scheduling performs zero heap allocations. The binary heap
// orders 24-byte keys only; each event's EventFn and sidecar state wait in
// a recycled slot, so a sift never moves a callable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/annotations.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace bento::sim {

using util::Duration;
using util::Time;

/// Recycles fixed-size allocations for event callables that overflow the
/// inline buffer. Freed slabs go on a free list and are reused by later
/// events, so even capture-heavy workloads stop allocating once warm.
class SlabPool {
 public:
  static constexpr std::size_t kSlabSize = 192;

  SlabPool() = default;
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;
  ~SlabPool() {
    while (free_ != nullptr) {
      Slab* next = free_->next;
      ::operator delete(free_);
      free_ = next;
    }
  }

  BENTO_HOT void* allocate(std::size_t n) {
    // bentolint: allow(BL102 oversized captures take the plain heap by design)
    if (n > kSlabSize) return ::operator new(n);  // oversized: plain heap
    if (free_ != nullptr) {
      Slab* s = free_;
      free_ = s->next;
      return s;
    }
    // bentolint: allow(BL102 cold pool refill, amortized to zero at steady state)
    return ::operator new(sizeof(Slab));
  }

  BENTO_HOT void deallocate(void* p, std::size_t n) {
    if (n > kSlabSize) {
      ::operator delete(p);
      return;
    }
    Slab* s = static_cast<Slab*>(p);
    s->next = free_;
    free_ = s;
  }

 private:
  union Slab {
    Slab* next;
    alignas(std::max_align_t) std::byte storage[kSlabSize];
  };
  Slab* free_ = nullptr;
};

/// Move-only `void()` callable with small-buffer optimization. Callables up
/// to kInlineSize bytes live inside the event itself; larger ones borrow a
/// slab from the simulator's pool (returned on destruction).
class EventFn {
 public:
  static constexpr std::size_t kInlineSize = 64;

  EventFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::remove_cvref_t<F>&>>>
  EventFn(SlabPool& pool, F&& f) {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(inline_)) Fn(std::forward<F>(f));
      vt_ = &inline_vtable<Fn>;
    } else {
      heap_ = pool.allocate(sizeof(Fn));
      try {
        ::new (heap_) Fn(std::forward<F>(f));
      } catch (...) {
        pool.deallocate(heap_, sizeof(Fn));
        heap_ = nullptr;
        throw;
      }
      pool_ = &pool;
      vt_ = &heap_vtable<Fn>;
    }
  }

  EventFn(EventFn&& o) noexcept { move_from(o); }

  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  BENTO_HOT void operator()() { vt_->invoke(target()); }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

 private:
  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineSize && alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  struct VTable {
    void (*invoke)(void*);
    // Move-construct into dst's inline buffer and destroy src (inline only;
    // heap callables move by pointer swap and never relocate).
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*);
    std::size_t heap_size;  // 0 for inline callables
  };

  template <typename Fn>
  static constexpr VTable inline_vtable = {
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* p) { static_cast<Fn*>(p)->~Fn(); },
      0};

  template <typename Fn>
  static constexpr VTable heap_vtable = {
      [](void* p) { (*static_cast<Fn*>(p))(); },
      nullptr,
      [](void* p) { static_cast<Fn*>(p)->~Fn(); },
      sizeof(Fn)};

  void* target() noexcept { return heap_ != nullptr ? heap_ : static_cast<void*>(inline_); }

  void move_from(EventFn& o) noexcept {
    vt_ = o.vt_;
    heap_ = o.heap_;
    pool_ = o.pool_;
    if (vt_ != nullptr && heap_ == nullptr) vt_->relocate(inline_, o.inline_);
    o.vt_ = nullptr;
    o.heap_ = nullptr;
    o.pool_ = nullptr;
  }

  void reset() noexcept {
    if (vt_ == nullptr) return;
    vt_->destroy(target());
    if (heap_ != nullptr) pool_->deallocate(heap_, vt_->heap_size);
    vt_ = nullptr;
    heap_ = nullptr;
    pool_ = nullptr;
  }

  alignas(std::max_align_t) std::byte inline_[kInlineSize];
  void* heap_ = nullptr;
  SlabPool* pool_ = nullptr;
  const VTable* vt_ = nullptr;
};

/// Raised by Simulator::run when it stops at its limit with events still
/// queued: a world whose timers re-arm forever never drains, and must not
/// look as if it had.
struct EventCapReached : std::runtime_error {
  EventCapReached(std::uint64_t limit, std::size_t pending)
      : std::runtime_error("simulator stopped at its cap of " + std::to_string(limit) +
                           " events with " + std::to_string(pending) + " still pending"),
        limit(limit),
        pending(pending) {}
  std::uint64_t limit;
  std::size_t pending;
};

/// The cap of a run to quiescence (tor::Testbed::run, BentoWorld::run).
inline constexpr std::uint64_t kRunEventCap = 100'000'000;

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);
  // The simulator registers itself as the process-wide sim clock (its
  // address is the registration key), so it must stay put.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  Time now() const { return now_; }
  util::Rng& rng() { return rng_; }

  /// Schedules `fn` at absolute time `t` (clamped to now if in the past).
  /// Accepts any `void()` callable; small captures are stored inline in the
  /// event queue with no heap allocation.
  template <typename F>
  void at(Time t, F&& fn) {
    schedule(t, EventFn(pool_, std::forward<F>(fn)));
  }

  /// Schedules `fn` after the given delay.
  template <typename F>
  void after(Duration d, F&& fn) {
    at(now_ + d, std::forward<F>(fn));
  }

  /// Runs one event; false if the queue is empty. An exception thrown by the
  /// handler propagates to the caller with the span context cleared.
  bool step();

  /// Runs until the queue is empty. Throws EventCapReached when `limit`
  /// events have fired and more are still queued.
  void run(std::uint64_t limit = UINT64_MAX);

  /// Runs events with timestamp <= deadline; clock lands on `deadline`.
  void run_until(Time deadline);

  std::uint64_t events_executed() const { return executed_; }
  std::size_t pending() const { return heap_.size(); }

 private:
  // What the heap sifts: the event's dispatch order and where it waits.
  struct Key {
    Time when;
    std::uint64_t seq;   // FIFO tie-break among same-timestamp events
    std::uint32_t slot;  // index into slots_

    bool before(const Key& o) const {
      if (when != o.when) return when < o.when;
      return seq < o.seq;
    }
  };

  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  // Everything else about a pending event; free slots form a list.
  struct Slot {
    Time queued_at;  // scheduling time, for the dispatch-lag histogram
    // Span context captured at schedule() and restored around dispatch, so
    // causality crosses timers and modeled delays without any handler
    // threading it through (DESIGN.md §8). Sidecar only: never on the wire.
    obs::SpanContext ctx;
    EventFn fn;
    std::uint32_t next_free = kNoSlot;
  };

  BENTO_HOT void schedule(Time t, EventFn fn);

  Time now_;
  util::Rng rng_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  SlabPool pool_;  // declared before slots_: events may hold pooled slabs
  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_slot_ = kNoSlot;  // head of the free-slot list

  // Pre-registered observability handles: per-dispatch cost is a flag
  // branch plus pointer-indirect adds (DESIGN.md §8 overhead contract).
  obs::Counter m_events_;
  obs::Histogram m_dispatch_lag_us_;
  obs::Gauge m_pending_;
};

}  // namespace bento::sim
