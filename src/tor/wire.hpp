// Message framing on the simulated links.
//
// Relay<->relay and client<->guard messages carry framed cells; exit<->web
// server traffic carries raw TcpMsg frames (whose type byte is < 0x80).
// The 0xC1 marker plus exact length makes the two unambiguous at nodes that
// receive both (exit relays).
#pragma once

#include "tor/cell.hpp"
#include "util/bytes.hpp"

namespace bento::tor {

inline constexpr std::uint8_t kCellFrameMarker = 0xC1;

/// Cell -> link message: the marker, then the 514-byte cell.
util::Bytes frame_cell(const Cell& cell);

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

}  // namespace bento::tor
