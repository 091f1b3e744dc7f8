// Message framing on the simulated links.
//
// Relay<->relay and client<->guard messages carry framed cells; exit<->web
// server traffic carries raw TcpMsg frames (whose type byte is < 0x80).
// The 0xC1 marker plus exact length makes the two unambiguous at nodes that
// receive both (exit relays).
#pragma once

#include <vector>

#include "tor/cell.hpp"
#include "util/bytes.hpp"

namespace bento::tor {

inline constexpr std::uint8_t kCellFrameMarker = 0xC1;
/// A framed cell: the marker, then the 514-byte cell.
inline constexpr std::size_t kFrameLen = kCellLen + 1;

/// Cell -> link message: the marker, then the 514-byte cell.
util::Bytes frame_cell(const Cell& cell);

/// The same bytes, written over `frame`, a kFrameLen-byte buffer.
void frame_cell_into(std::span<std::uint8_t> frame, const Cell& cell);

/// True if the message is a framed cell (vs a TcpMsg).
bool is_framed_cell(util::ByteView wire);

/// Parses a framed cell; throws util::ParseError on malformed input.
Cell unframe_cell(util::ByteView wire);

// Fields of a message for which is_framed_cell() holds, read and written in
// place, so a relay can forward a cell in the buffer it arrived in.
CircId frame_circ_id(util::ByteView frame);
void set_frame_circ_id(std::span<std::uint8_t> frame, CircId circ_id);
CellCommand frame_command(util::ByteView frame);
PayloadSpan frame_payload(std::span<std::uint8_t> frame);
/// Writes the marker and the cell header; the payload is left as it is.
void set_frame_header(std::span<std::uint8_t> frame, CircId circ_id, CellCommand command);

/// The link frames one circuit end has consumed, kept to pack its next cells
/// into. An end that receives about as many cells as it sends — a request
/// and its reply, a window's worth of data and its SENDMEs — then sends
/// without allocating; pass-through hops need none, they forward the frame
/// that arrived.
class FramePool {
 public:
  /// A kFrameLen-byte frame to pack (contents unspecified): a spare one when
  /// the end has any, else a fresh one.
  util::Bytes take();
  /// Keeps a consumed cell frame, up to kMaxSpares of them; any other buffer
  /// is dropped.
  void give(util::Bytes frame);

 private:
  static constexpr std::size_t kMaxSpares = 16;
  std::vector<util::Bytes> spares_;
};

}  // namespace bento::tor
