// Golden fixture for BL103 (shared_from_this captured by a lambda, or a
// function that captures the pointer it is stored through — the
// BentoConnection reference-cycle leak class).
#include <functional>
#include <memory>

namespace fx {

struct Conn : std::enable_shared_from_this<Conn> {
  std::function<void()> cb;

  // Positive: shared_from_this() directly in the capture list.
  void arm_direct() {
    cb = [self = shared_from_this()] { (void)self; };  // expect(BL103)
  }

  // Positive: a strong self variable derived from shared_from_this().
  void arm_var() {
    auto self = shared_from_this();
    cb = [self] { (void)self; };  // expect(BL103)
  }

  // Suppressed: a one-shot handler that provably clears itself.
  void arm_allowed() {
    auto keep = shared_from_this();
    // bentolint: allow(BL103 one-shot timer, handler cleared on fire)
    cb = [keep] { (void)keep; };
  }

  // Clean: the weak-capture pattern the diagnostic points to.
  void arm_weak() {
    std::weak_ptr<Conn> weak = shared_from_this();
    cb = [weak] {
      if (auto self = weak.lock()) (void)self;
    };
  }
};

// A function stored through a shared_ptr and rescheduling itself: the
// sampler loop of a harness.
using Schedule = std::function<void(std::function<void()>)>;

// Positive: the stored function copies the pointer it is stored through.
void loop_strong(const Schedule& schedule) {
  auto tick = std::make_shared<std::function<void()>>();
  *tick = [&schedule, tick] { schedule(*tick); };  // expect(BL103)
}

// Positive: an init-capture copies it just the same.
void loop_renamed(const Schedule& schedule) {
  auto tick = std::make_shared<std::function<void()>>();
  *tick = [&schedule, again = tick] { schedule(*again); };  // expect(BL103)
}

// Suppressed: the owner breaks the cycle by hand.
void loop_allowed(const Schedule& schedule) {
  auto tick = std::make_shared<std::function<void()>>();
  // bentolint: allow(BL103 the caller resets *tick when the loop ends)
  *tick = [&schedule, tick] { schedule(*tick); };
}

// Clean: the stored function holds itself weakly; each scheduled event
// holds the strong reference.
void loop_weak(const Schedule& schedule) {
  auto tick = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_tick = tick;
  *tick = [&schedule, weak_tick] {
    if (auto self = weak_tick.lock()) schedule([self] { (*self)(); });
  };
  schedule([tick] { (*tick)(); });
}

}  // namespace fx
