// Tor flow control constants (tor-spec §7.3/7.4) and a byte queue used by
// stream endpoints to buffer data awaiting window credit.
//
// Windows are counted in RELAY_DATA cells. Each endpoint starts with the
// init window, decrements as it packages cells, and stops when it reaches
// zero; the receiving edge returns a SENDME for every `increment` cells it
// delivers, crediting the window.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/bytes.hpp"

namespace bento::tor {

inline constexpr int kStreamWindowInit = 500;
inline constexpr int kStreamWindowIncrement = 50;
inline constexpr int kCircuitWindowInit = 1000;
inline constexpr int kCircuitWindowIncrement = 100;

/// FIFO of byte buffers awaiting window credit. It keeps the buffers it is
/// given and pop() copies straight into the caller's cell payload, so a
/// queued message is never copied or re-chunked into buffers of its own.
class ByteQueue {
 public:
  void push(util::Bytes data);
  /// Moves up to out.size() bytes into `out`; returns how many (fewer only
  /// if the queue is shorter).
  std::size_t pop(std::span<std::uint8_t> out);
  bool empty() const { return total_ == 0; }
  std::size_t size() const { return total_; }

 private:
  // Live segments are segments_[head_..]; the drained prefix is reclaimed
  // when the queue empties or the vector is full, so a warm queue's storage
  // is reused.
  std::vector<util::Bytes> segments_;
  std::size_t head_ = 0;
  std::size_t head_offset_ = 0;  // consumed prefix of segments_[head_]
  std::size_t total_ = 0;
};

}  // namespace bento::tor
