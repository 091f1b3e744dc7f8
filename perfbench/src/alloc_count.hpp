#pragma once

#include <cstdint>

namespace perfbench {

/// Heap allocations (every operator new) made by this process so far.
std::uint64_t allocations();

}  // namespace perfbench
