#include "tor/wire.hpp"

#include "util/annotations.hpp"
#include "util/serialize.hpp"

namespace bento::tor {

util::Bytes frame_cell(const Cell& cell) {
  // One allocation: marker + header + payload written straight into the
  // frame instead of appending a Cell::pack() temporary.
  util::Bytes out;
  out.reserve(kCellLen + 1);
  out.push_back(kCellFrameMarker);
  out.push_back(static_cast<std::uint8_t>(cell.circ_id >> 24));
  out.push_back(static_cast<std::uint8_t>(cell.circ_id >> 16));
  out.push_back(static_cast<std::uint8_t>(cell.circ_id >> 8));
  out.push_back(static_cast<std::uint8_t>(cell.circ_id));
  out.push_back(static_cast<std::uint8_t>(cell.command));
  out.insert(out.end(), cell.payload.begin(), cell.payload.end());
  return out;
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

}  // namespace bento::tor
