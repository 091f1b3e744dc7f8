#include "sim/simulator.hpp"

#include <algorithm>

#include "util/annotations.hpp"
#include "util/log.hpp"
#include "util/simclock.hpp"

namespace bento::sim {

namespace {

std::int64_t sim_clock_thunk(const void* ctx) {
  return static_cast<const Simulator*>(ctx)->now().micros();
}

// std::push_heap/pop_heap are max-heaps; invert `before` to pop the minimum.
struct KeyAfter {
  template <typename K>
  bool operator()(const K& a, const K& b) const {
    return b.before(a);
  }
};

// Clears the span context after a handler, also when it throws: no request's
// causal context may leak into the next event or into the caller of run().
struct SpanReset {
  ~SpanReset() { obs::set_current_span(obs::SpanContext{}); }
};

}  // namespace

Simulator::Simulator(std::uint64_t seed)
    : now_(Time::from_micros(0)),
      rng_(seed),
      m_events_(obs::registry().counter("sim.events")),
      m_dispatch_lag_us_(obs::registry().histogram("sim.dispatch_lag_us")),
      m_pending_(obs::registry().gauge("sim.queue_depth")) {
  util::install_sim_clock(&sim_clock_thunk, this);
}

Simulator::~Simulator() { util::uninstall_sim_clock(this); }

BENTO_HOT void Simulator::schedule(Time t, EventFn fn) {
  if (t < now_) t = now_;
  std::uint32_t slot = free_slot_;
  if (slot != kNoSlot) {
    Slot& s = slots_[slot];
    free_slot_ = s.next_free;
    s.queued_at = now_;
    s.ctx = obs::current_span();
    s.fn = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    // bentolint: allow(BL102 slot vector growth, amortized; slots are recycled)
    slots_.push_back(Slot{now_, obs::current_span(), std::move(fn)});
  }
  // bentolint: allow(BL102 heap vector growth, amortized; events themselves are pooled)
  heap_.push_back(Key{t, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), KeyAfter{});
}

BENTO_HOT bool Simulator::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), KeyAfter{});
  const Key key = heap_.back();
  heap_.pop_back();
  // The handler may schedule events and so grow slots_: take the callable
  // out of its slot before running it, and recycle the slot now.
  Slot& slot = slots_[key.slot];
  EventFn fn = std::move(slot.fn);
  const Time queued_at = slot.queued_at;
  const obs::SpanContext ctx = slot.ctx;
  slot.next_free = free_slot_;
  free_slot_ = key.slot;
  now_ = key.when;
  ++executed_;
  m_events_.inc();
  m_dispatch_lag_us_.record((key.when - queued_at).count_micros());
  m_pending_.set(static_cast<std::int64_t>(heap_.size()));
  obs::trace(obs::Ev::SimDispatch, 0, heap_.size());
  // The predicate gate keeps the formatting cost out of the dispatch loop:
  // a Trace-level sink sees every event, everyone else pays one branch.
  if (util::log_enabled(util::LogLevel::Trace)) {
    util::log(util::LogLevel::Trace, "sim", "dispatch #", executed_, " at t=",
              now_.micros(), "us, ", heap_.size(), " pending");
  }
  // Dispatch under the span context captured at schedule() so downstream
  // instrumentation (and any events this handler schedules) inherit the
  // originating request's causal chain; cleared after, never leaked across
  // events.
  const SpanReset reset;
  obs::set_current_span(ctx);
  fn();
  return true;
}

void Simulator::run(std::uint64_t limit) {
  for (std::uint64_t i = 0; i < limit && step(); ++i) {
  }
  if (!heap_.empty()) throw EventCapReached(limit, heap_.size());
}

void Simulator::run_until(Time deadline) {
  while (!heap_.empty() && !(deadline < heap_.front().when)) step();
  if (now_ < deadline) now_ = deadline;
}

}  // namespace bento::sim
