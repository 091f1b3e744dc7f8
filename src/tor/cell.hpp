// Tor cells: the fixed-size link unit of the overlay (tor-spec §3, §6).
//
// Wire layout (514 bytes total):
//   circ_id  u32
//   command  u8
//   payload  509 bytes
//
// RELAY cells carry a second header inside the (onion-encrypted) payload:
//   relay_cmd  u8
//   recognized u16   (0 when the cell is for this hop, post-decryption)
//   stream_id  u16
//   digest     u32   (running-hash check, see relaycrypto.hpp)
//   length     u16
//   data       498 bytes
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "util/bytes.hpp"

namespace bento::tor {

inline constexpr std::size_t kCellPayloadLen = 509;
inline constexpr std::size_t kCellLen = 514;
inline constexpr std::size_t kRelayHeaderLen = 11;
inline constexpr std::size_t kRelayDataMax = kCellPayloadLen - kRelayHeaderLen;  // 498

using CircId = std::uint32_t;
using StreamId = std::uint16_t;

/// A cell payload wherever it lives — a Cell, a packing buffer or a framed
/// cell on the link — so relay crypto works on it in place.
using PayloadSpan = std::span<std::uint8_t, kCellPayloadLen>;

enum class CellCommand : std::uint8_t {
  Padding = 0,
  Create = 1,
  Created = 2,
  Relay = 3,
  Destroy = 4,
};

enum class RelayCommand : std::uint8_t {
  Begin = 1,
  Data = 2,
  End = 3,
  Connected = 4,
  SendmeStream = 5,
  Extend = 6,
  Extended = 7,
  SendmeCircuit = 8,
  Drop = 10,  // long-range dummy; used by the Cover function
  // Hidden-service (rendezvous) commands, tor-spec §rend.
  EstablishIntro = 32,
  EstablishRendezvous = 33,
  Introduce1 = 34,
  Introduce2 = 35,
  Rendezvous1 = 36,
  Rendezvous2 = 37,
  IntroEstablished = 38,
  RendezvousEstablished = 39,
};

const char* to_string(RelayCommand c);

struct Cell {
  CircId circ_id = 0;
  CellCommand command = CellCommand::Padding;
  std::array<std::uint8_t, kCellPayloadLen> payload{};

  /// Packs into the 514-byte wire form.
  util::Bytes pack() const;

  /// Unpacks; throws util::ParseError unless exactly kCellLen bytes.
  static Cell unpack(util::ByteView wire);

  /// Copies `data` into the payload (must fit); rest stays zero.
  void set_payload(util::ByteView data);
};

/// The decrypted inner header+data of a RELAY cell.
struct RelayCell {
  RelayCommand relay_cmd = RelayCommand::Data;
  std::uint16_t recognized = 0;
  StreamId stream_id = 0;
  std::uint32_t digest = 0;
  /// Up to kRelayDataMax bytes, viewed: a sender's bytes must outlive the
  /// pack, a received cell's are the payload it was unpacked from.
  util::ByteView data;

  /// Serializes into a 509-byte payload (zero padded).
  std::array<std::uint8_t, kCellPayloadLen> pack() const;
  /// Same, into `out` (a link frame's payload, say). `data` may already sit
  /// at its place in `out`, as a stream pops it there.
  void pack_into(PayloadSpan out) const;

  /// Parses a payload in place: `data` views it. Throws util::ParseError if
  /// the length field is invalid.
  static RelayCell unpack(std::span<const std::uint8_t, kCellPayloadLen> payload);
};

}  // namespace bento::tor
