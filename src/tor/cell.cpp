#include "tor/cell.hpp"

#include <cstring>
#include <stdexcept>

#include "util/annotations.hpp"
#include "util/serialize.hpp"

namespace bento::tor {

const char* to_string(RelayCommand c) {
  switch (c) {
    case RelayCommand::Begin: return "BEGIN";
    case RelayCommand::Data: return "DATA";
    case RelayCommand::End: return "END";
    case RelayCommand::Connected: return "CONNECTED";
    case RelayCommand::SendmeStream: return "SENDME_STREAM";
    case RelayCommand::Extend: return "EXTEND";
    case RelayCommand::Extended: return "EXTENDED";
    case RelayCommand::SendmeCircuit: return "SENDME_CIRCUIT";
    case RelayCommand::Drop: return "DROP";
    case RelayCommand::EstablishIntro: return "ESTABLISH_INTRO";
    case RelayCommand::EstablishRendezvous: return "ESTABLISH_RENDEZVOUS";
    case RelayCommand::Introduce1: return "INTRODUCE1";
    case RelayCommand::Introduce2: return "INTRODUCE2";
    case RelayCommand::Rendezvous1: return "RENDEZVOUS1";
    case RelayCommand::Rendezvous2: return "RENDEZVOUS2";
    case RelayCommand::IntroEstablished: return "INTRO_ESTABLISHED";
    case RelayCommand::RendezvousEstablished: return "RENDEZVOUS_ESTABLISHED";
  }
  return "UNKNOWN";
}

util::Bytes Cell::pack() const {
  util::Writer w;
  w.u32(circ_id);
  w.u8(static_cast<std::uint8_t>(command));
  w.raw(payload);
  return std::move(w).take();
}

BENTO_HOT Cell Cell::unpack(util::ByteView wire) {
  if (wire.size() != kCellLen) throw util::ParseError("Cell::unpack: bad size");
  util::Reader r(wire);
  Cell c;
  c.circ_id = r.u32();
  c.command = static_cast<CellCommand>(r.u8());
  const util::ByteView body = r.view(kCellPayloadLen);
  std::memcpy(c.payload.data(), body.data(), kCellPayloadLen);
  return c;
}

void Cell::set_payload(util::ByteView data) {
  if (data.size() > kCellPayloadLen) {
    throw std::invalid_argument("Cell::set_payload: too large");
  }
  payload.fill(0);
  std::memcpy(payload.data(), data.data(), data.size());
}

std::array<std::uint8_t, kCellPayloadLen> RelayCell::pack() const {
  std::array<std::uint8_t, kCellPayloadLen> out{};
  pack_into(out);
  return out;
}

BENTO_HOT void RelayCell::pack_into(PayloadSpan out) const {
  if (data.size() > kRelayDataMax) {
    throw std::invalid_argument("RelayCell::pack: data too large");
  }
  // Serialized straight into the fixed payload: the relay header is
  // big-endian per tor-spec, and packing must not heap-allocate (datapath).
  out[0] = static_cast<std::uint8_t>(relay_cmd);
  out[1] = static_cast<std::uint8_t>(recognized >> 8);
  out[2] = static_cast<std::uint8_t>(recognized);
  out[3] = static_cast<std::uint8_t>(stream_id >> 8);
  out[4] = static_cast<std::uint8_t>(stream_id);
  out[5] = static_cast<std::uint8_t>(digest >> 24);
  out[6] = static_cast<std::uint8_t>(digest >> 16);
  out[7] = static_cast<std::uint8_t>(digest >> 8);
  out[8] = static_cast<std::uint8_t>(digest);
  out[9] = static_cast<std::uint8_t>(data.size() >> 8);
  out[10] = static_cast<std::uint8_t>(data.size());
  std::uint8_t* body = out.data() + kRelayHeaderLen;
  if (!data.empty() && data.data() != body) std::memcpy(body, data.data(), data.size());
  std::memset(body + data.size(), 0, kRelayDataMax - data.size());
}

BENTO_HOT RelayCell RelayCell::unpack(std::span<const std::uint8_t, kCellPayloadLen> payload) {
  util::Reader r(payload);
  RelayCell c;
  c.relay_cmd = static_cast<RelayCommand>(r.u8());
  c.recognized = r.u16();
  c.stream_id = r.u16();
  c.digest = r.u32();
  const std::uint16_t len = r.u16();
  if (len > kRelayDataMax) throw util::ParseError("RelayCell: bad length");
  c.data = r.view(len);
  return c;
}

}  // namespace bento::tor
