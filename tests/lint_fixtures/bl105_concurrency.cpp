// Golden fixture for BL105 (concurrency ban): thread, lock, atomic and
// thread-local state anywhere in src/ flags, and an allow annotation does
// not lift the ban — the simulator is one event loop (DESIGN.md §12).
// bentolint_test analyzes this file under a virtual src/ path (fires) and
// under tools/ and bench/ paths (out of scope, silent).
#include <atomic>
#include <mutex>
#include <thread>

namespace fx {

// Positive: members and locals alike.
struct Shared {
  std::mutex mu;             // expect(BL105)
  std::atomic<int> refs{0};  // expect(BL105)
};

void spin() {
  std::thread t([] {});  // expect(BL105)
  t.join();
}

thread_local int per_thread = 0;  // expect(BL105)

// An annotation is no sanction: the ban has no allowlist.
struct Gate {
  // bentolint: allow(BL105 crash-only test harness, never on the sim loop)
  std::mutex harness_mu;  // expect(BL105)
};

}  // namespace fx
