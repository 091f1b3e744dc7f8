#include <gtest/gtest.h>

#include <vector>

#include "tor/address.hpp"
#include "tor/cell.hpp"
#include "tor/exitpolicy.hpp"
#include "tor/flow.hpp"
#include "tor/wire.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace bt = bento::tor;
namespace bu = bento::util;

TEST(Address, ParseFormatRoundTrip) {
  EXPECT_EQ(bt::format_addr(bt::parse_addr("10.1.2.3")), "10.1.2.3");
  EXPECT_EQ(bt::parse_addr("0.0.0.0"), 0u);
  EXPECT_EQ(bt::parse_addr("255.255.255.255"), 0xffffffffu);
  EXPECT_EQ(bt::parse_addr("1.0.0.0"), 0x01000000u);
}

TEST(Address, ParseRejectsBad) {
  EXPECT_THROW(bt::parse_addr("1.2.3"), std::invalid_argument);
  EXPECT_THROW(bt::parse_addr("1.2.3.256"), std::invalid_argument);
  EXPECT_THROW(bt::parse_addr("1.2.3.4.5"), std::invalid_argument);
  EXPECT_THROW(bt::parse_addr("a.b.c.d"), std::invalid_argument);
}

TEST(Address, Slash16) {
  EXPECT_EQ(bt::slash16(bt::parse_addr("10.1.2.3")),
            bt::slash16(bt::parse_addr("10.1.200.200")));
  EXPECT_NE(bt::slash16(bt::parse_addr("10.1.2.3")),
            bt::slash16(bt::parse_addr("10.2.2.3")));
}

TEST(Cell, PackUnpackRoundTrip) {
  bt::Cell c;
  c.circ_id = 0xdeadbeef;
  c.command = bt::CellCommand::Relay;
  bu::Rng rng(1);
  bu::Bytes body = rng.bytes(bt::kCellPayloadLen);
  std::copy(body.begin(), body.end(), c.payload.begin());

  bu::Bytes wire = c.pack();
  EXPECT_EQ(wire.size(), bt::kCellLen);
  bt::Cell back = bt::Cell::unpack(wire);
  EXPECT_EQ(back.circ_id, c.circ_id);
  EXPECT_EQ(back.command, c.command);
  EXPECT_EQ(back.payload, c.payload);
}

TEST(Cell, UnpackRejectsWrongSize) {
  EXPECT_THROW(bt::Cell::unpack(bu::Bytes(10)), bu::ParseError);
  EXPECT_THROW(bt::Cell::unpack(bu::Bytes(bt::kCellLen + 1)), bu::ParseError);
}

TEST(Cell, SetPayloadBounds) {
  bt::Cell c;
  c.set_payload(bu::Bytes(bt::kCellPayloadLen, 1));
  EXPECT_EQ(c.payload[0], 1);
  EXPECT_THROW(c.set_payload(bu::Bytes(bt::kCellPayloadLen + 1, 1)),
               std::invalid_argument);
}

TEST(RelayCell, PackUnpackRoundTrip) {
  const bu::Bytes data = bu::to_bytes("hello tor");
  bt::RelayCell rc;
  rc.relay_cmd = bt::RelayCommand::Data;
  rc.stream_id = 42;
  rc.digest = 0x01020304;
  rc.data = data;
  auto payload = rc.pack();
  bt::RelayCell back = bt::RelayCell::unpack(payload);
  EXPECT_EQ(back.relay_cmd, rc.relay_cmd);
  EXPECT_EQ(back.recognized, 0);
  EXPECT_EQ(back.stream_id, rc.stream_id);
  EXPECT_EQ(back.digest, rc.digest);
  EXPECT_EQ(bu::to_string(back.data), "hello tor");
  // Unpacking reads in place: the data views the payload itself.
  EXPECT_EQ(back.data.data(), payload.data() + bt::kRelayHeaderLen);
}

TEST(RelayCell, MaxDataFits) {
  const bu::Bytes data(bt::kRelayDataMax + 1, 0x7f);
  bt::RelayCell rc;
  rc.data = bu::ByteView(data).first(bt::kRelayDataMax);
  auto payload = rc.pack();
  EXPECT_EQ(bt::RelayCell::unpack(payload).data.size(), bt::kRelayDataMax);
  rc.data = data;
  EXPECT_THROW(rc.pack(), std::invalid_argument);
}

TEST(RelayCell, PackIntoAFrameZeroPadsAndTakesDataInPlace) {
  // A recycled frame still holds its last cell; packing must leave exactly
  // the bytes pack() gives, whether the data is copied in or was popped
  // into place already.
  const bu::Bytes data = bu::to_bytes("in place");
  bt::RelayCell rc;
  rc.stream_id = 9;
  rc.data = data;
  const auto expected = rc.pack();
  std::array<std::uint8_t, bt::kCellPayloadLen> frame;
  frame.fill(0xee);
  rc.pack_into(frame);
  EXPECT_EQ(frame, expected);
  frame.fill(0xee);
  std::copy(data.begin(), data.end(), frame.begin() + bt::kRelayHeaderLen);
  rc.data = bu::ByteView(frame).subspan(bt::kRelayHeaderLen, data.size());
  rc.pack_into(frame);
  EXPECT_EQ(frame, expected);
}

TEST(RelayCell, UnpackRejectsBadLength) {
  std::array<std::uint8_t, bt::kCellPayloadLen> payload{};
  payload[9] = 0x7f;  // length field = 0x7fXX > kRelayDataMax
  payload[10] = 0xff;
  EXPECT_THROW(bt::RelayCell::unpack(payload), bu::ParseError);
}

TEST(Wire, FrameUnframeRoundTrip) {
  bt::Cell c;
  c.circ_id = 7;
  c.command = bt::CellCommand::Create;
  bu::Bytes framed = bt::frame_cell(c);
  EXPECT_TRUE(bt::is_framed_cell(framed));
  bt::Cell back = bt::unframe_cell(framed);
  EXPECT_EQ(back.circ_id, 7u);
  EXPECT_EQ(back.command, bt::CellCommand::Create);
}

TEST(Wire, TcpMessagesAreNotCells) {
  bu::Bytes not_cell(bt::kCellLen + 1, 0x01);  // right size, wrong marker
  EXPECT_FALSE(bt::is_framed_cell(not_cell));
  bu::Bytes short_msg = {bt::kCellFrameMarker, 1, 2};
  EXPECT_FALSE(bt::is_framed_cell(short_msg));
  EXPECT_THROW(bt::unframe_cell(short_msg), bu::ParseError);
}

TEST(ExitPolicy, ParseAndMatch) {
  auto p = bt::ExitPolicy::parse("accept *:80\naccept *:443\nreject *:*");
  EXPECT_TRUE(p.allows({bt::parse_addr("1.2.3.4"), 80}));
  EXPECT_TRUE(p.allows({bt::parse_addr("9.9.9.9"), 443}));
  EXPECT_FALSE(p.allows({bt::parse_addr("1.2.3.4"), 22}));
  EXPECT_TRUE(p.allows_anything());
}

TEST(ExitPolicy, FirstMatchWins) {
  auto p = bt::ExitPolicy::parse("reject 10.0.0.0/8:*\naccept *:*");
  EXPECT_FALSE(p.allows({bt::parse_addr("10.1.2.3"), 80}));
  EXPECT_TRUE(p.allows({bt::parse_addr("11.1.2.3"), 80}));
}

TEST(ExitPolicy, PrefixAndPortRanges) {
  auto p = bt::ExitPolicy::parse("accept 192.168.0.0/16:8000-9000\nreject *:*");
  EXPECT_TRUE(p.allows({bt::parse_addr("192.168.55.1"), 8500}));
  EXPECT_FALSE(p.allows({bt::parse_addr("192.169.0.1"), 8500}));
  EXPECT_FALSE(p.allows({bt::parse_addr("192.168.0.1"), 7999}));
  EXPECT_TRUE(p.allows({bt::parse_addr("192.168.0.1"), 8000}));
  EXPECT_TRUE(p.allows({bt::parse_addr("192.168.0.1"), 9000}));
}

TEST(ExitPolicy, SingleHostSinglePort) {
  auto p = bt::ExitPolicy::parse("accept 1.2.3.4:80, reject *:*");
  EXPECT_TRUE(p.allows({bt::parse_addr("1.2.3.4"), 80}));
  EXPECT_FALSE(p.allows({bt::parse_addr("1.2.3.5"), 80}));
}

TEST(ExitPolicy, EmptyRejects) {
  bt::ExitPolicy p;
  EXPECT_FALSE(p.allows({bt::parse_addr("1.2.3.4"), 80}));
  EXPECT_FALSE(p.allows_anything());
}

TEST(ExitPolicy, RejectAllAllowsNothing) {
  auto p = bt::ExitPolicy::reject_all();
  EXPECT_FALSE(p.allows_anything());
  EXPECT_TRUE(bt::ExitPolicy::accept_all().allows({1, 1}));
}

TEST(ExitPolicy, ParseRejectsMalformed) {
  EXPECT_THROW(bt::ExitPolicy::parse("frobnicate *:80"), std::invalid_argument);
  EXPECT_THROW(bt::ExitPolicy::parse("accept *"), std::invalid_argument);
  EXPECT_THROW(bt::ExitPolicy::parse("accept 1.2.3.4/40:80"), std::invalid_argument);
  EXPECT_THROW(bt::ExitPolicy::parse("accept *:90-80"), std::invalid_argument);
  EXPECT_THROW(bt::ExitPolicy::parse("accept *:70000"), std::invalid_argument);
}

TEST(ExitPolicy, CommentsAndBlanksIgnored) {
  auto p = bt::ExitPolicy::parse("# comment\n\n  accept *:80  \nreject *:*");
  EXPECT_TRUE(p.allows({1, 80}));
}

TEST(ExitPolicy, SerializeRoundTrip) {
  auto p = bt::ExitPolicy::parse("accept 10.2.0.0/16:443-8443\nreject *:*");
  auto back = bt::ExitPolicy::deserialize(p.serialize());
  EXPECT_EQ(back.to_string(), p.to_string());
  EXPECT_TRUE(back.allows({bt::parse_addr("10.2.9.9"), 443}));
  EXPECT_FALSE(back.allows({bt::parse_addr("10.3.9.9"), 443}));
}

namespace {
/// Pops up to `n` bytes the way a circuit end does, into a cell-sized slot.
bu::Bytes pop_bytes(bt::ByteQueue& q, std::size_t n) {
  bu::Bytes out(n);
  out.resize(q.pop(out));
  return out;
}
}  // namespace

TEST(ByteQueue, PushPopRechunks) {
  bt::ByteQueue q;
  q.push(bu::to_bytes("hello "));
  q.push(bu::to_bytes("world"));
  EXPECT_EQ(q.size(), 11u);
  EXPECT_EQ(bu::to_string(pop_bytes(q, 7)), "hello w");
  EXPECT_EQ(bu::to_string(pop_bytes(q, 100)), "orld");
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(pop_bytes(q, 5).empty());
}

TEST(ByteQueue, ManySmallSegmentsPopLarge) {
  bt::ByteQueue q;
  for (int i = 0; i < 100; ++i) q.push(bu::Bytes{static_cast<std::uint8_t>(i)});
  bu::Bytes all = pop_bytes(q, 100);
  ASSERT_EQ(all.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(all[static_cast<std::size_t>(i)], i);
}

TEST(ByteQueue, KeepsOrderAcrossRefillsWhileNeverDrained) {
  // A backlog that never empties: the drained front must be reclaimed
  // without reordering or losing bytes.
  bt::ByteQueue q;
  std::uint8_t next_in = 0;
  std::uint8_t next_out = 0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 3; ++i) {
      bu::Bytes segment(5);
      for (std::uint8_t& b : segment) b = next_in++;
      q.push(std::move(segment));
    }
    for (const std::uint8_t b : pop_bytes(q, 12)) ASSERT_EQ(b, next_out++);
  }
  EXPECT_EQ(q.size(), 200u * 3);
}

namespace {
/// One circuit end's stream table that only counts the DATA cells it sends.
struct CountingTable {
  bt::FramePool frames;
  int data_cells = 0;
  bt::StreamTable table{frames, [this](bu::Bytes frame, const bt::RelayCell& rc) {
    if (rc.relay_cmd == bt::RelayCommand::Data) ++data_cells;
    frames.give(std::move(frame));
  }};
};

bt::RelayCell sendme(bt::RelayCommand cmd, bt::StreamId sid) {
  bt::RelayCell rc;
  rc.relay_cmd = cmd;
  rc.stream_id = sid;
  return rc;
}

/// More data than any package window lets out.
bu::Bytes cells_of_data(std::size_t cells) { return bu::Bytes(cells * bt::kRelayDataMax, 0); }
}  // namespace

// A SENDME answers cells this end sent. One that arrives before any DATA has
// gone out would lift the window past its initial size (tor-spec §7.4 calls
// that a protocol violation), so it is ignored: the stream still stops at
// kStreamWindowInit cells instead of 550.
TEST(StreamTable, EarlyStreamSendmeDoesNotLiftTheStreamWindow) {
  CountingTable end;
  bt::Stream& stream = end.table.add(1);
  end.table.receive(sendme(bt::RelayCommand::SendmeStream, 1));
  stream.send(cells_of_data(600));
  EXPECT_EQ(end.data_cells, bt::kStreamWindowInit);
}

// The same for the circuit window: three streams could send 1,500 cells
// between them, and the circuit stops them at kCircuitWindowInit, not 1,100.
TEST(StreamTable, EarlyCircuitSendmeDoesNotLiftTheCircuitWindow) {
  CountingTable end;
  std::vector<bt::Stream*> streams;
  for (bt::StreamId sid = 1; sid <= 3; ++sid) streams.push_back(&end.table.add(sid));
  end.table.receive(sendme(bt::RelayCommand::SendmeCircuit, 0));
  for (bt::Stream* stream : streams) stream->send(cells_of_data(600));
  EXPECT_EQ(end.data_cells, bt::kCircuitWindowInit);
}
