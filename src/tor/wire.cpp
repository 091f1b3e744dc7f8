#include "tor/wire.hpp"

#include <cstring>

#include "util/annotations.hpp"
#include "util/serialize.hpp"

namespace bento::tor {

util::Bytes frame_cell(const Cell& cell) {
  util::Bytes out(kFrameLen);
  frame_cell_into(out, cell);
  return out;
}

BENTO_HOT void frame_cell_into(std::span<std::uint8_t> frame, const Cell& cell) {
  set_frame_header(frame, cell.circ_id, cell.command);
  std::memcpy(frame_payload(frame).data(), cell.payload.data(), kCellPayloadLen);
}

BENTO_HOT bool is_framed_cell(util::ByteView wire) {
  return wire.size() == kCellLen + 1 && wire[0] == kCellFrameMarker;
}

BENTO_HOT Cell unframe_cell(util::ByteView wire) {
  if (!is_framed_cell(wire)) throw util::ParseError("unframe_cell: not a cell frame");
  return Cell::unpack(wire.subspan(1));
}

BENTO_HOT CircId frame_circ_id(util::ByteView frame) {
  return static_cast<CircId>(frame[1]) << 24 | static_cast<CircId>(frame[2]) << 16 |
         static_cast<CircId>(frame[3]) << 8 | static_cast<CircId>(frame[4]);
}

BENTO_HOT void set_frame_circ_id(std::span<std::uint8_t> frame, CircId circ_id) {
  frame[1] = static_cast<std::uint8_t>(circ_id >> 24);
  frame[2] = static_cast<std::uint8_t>(circ_id >> 16);
  frame[3] = static_cast<std::uint8_t>(circ_id >> 8);
  frame[4] = static_cast<std::uint8_t>(circ_id);
}

BENTO_HOT CellCommand frame_command(util::ByteView frame) {
  return static_cast<CellCommand>(frame[5]);
}

BENTO_HOT PayloadSpan frame_payload(std::span<std::uint8_t> frame) {
  return frame.subspan<6, kCellPayloadLen>();
}

BENTO_HOT void set_frame_header(std::span<std::uint8_t> frame, CircId circ_id,
                                CellCommand command) {
  frame[0] = kCellFrameMarker;
  set_frame_circ_id(frame, circ_id);
  frame[5] = static_cast<std::uint8_t>(command);
}

BENTO_HOT util::Bytes FramePool::take() {
  // Refill, like SlabPool's: only while more frames are out than have come
  // back (util::Bytes(n) is the one allocation).
  if (spares_.empty()) return util::Bytes(kFrameLen);
  util::Bytes frame = std::move(spares_.back());
  spares_.pop_back();
  return frame;
}

BENTO_HOT void FramePool::give(util::Bytes frame) {
  if (frame.size() != kFrameLen || spares_.size() == kMaxSpares) return;
  // bentolint: allow(BL102 amortized growth up to kMaxSpares; a warm batch never repeats it)
  spares_.push_back(std::move(frame));
}

}  // namespace bento::tor
