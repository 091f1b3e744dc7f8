#include "tor/flow.hpp"

#include <algorithm>
#include <cstring>

#include "util/annotations.hpp"

namespace bento::tor {

BENTO_HOT void ByteQueue::push(util::Bytes data) {
  if (data.empty()) return;
  if (head_ > 0 && segments_.size() == segments_.capacity()) {
    segments_.erase(segments_.begin(), segments_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  total_ += data.size();
  // bentolint: allow(BL102 amortized growth to the deepest backlog; a warm batch never repeats it)
  segments_.push_back(std::move(data));
}

BENTO_HOT std::size_t ByteQueue::pop(std::span<std::uint8_t> out) {
  std::size_t filled = 0;
  while (filled < out.size() && total_ > 0) {
    util::Bytes& front = segments_[head_];
    const std::size_t take = std::min(front.size() - head_offset_, out.size() - filled);
    std::memcpy(out.data() + filled, front.data() + head_offset_, take);
    filled += take;
    head_offset_ += take;
    total_ -= take;
    if (head_offset_ == front.size()) {
      front = util::Bytes();  // the message is fully sent: release its buffer
      head_offset_ = 0;
      if (++head_ == segments_.size()) {
        segments_.clear();
        head_ = 0;
      }
    }
  }
  return filled;
}

}  // namespace bento::tor
