// End-to-end tests over the full simulated Tor network: circuit building,
// exit streams to clearnet servers, local (Bento-style) apps on relays,
// flow control, cover traffic, and teardown.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "tor/testbed.hpp"
#include "tor/wire.hpp"
#include "util/bytes.hpp"

namespace bt = bento::tor;
namespace bu = bento::util;
namespace bs = bento::sim;

namespace {
bt::Endpoint web_endpoint() { return {bt::parse_addr("93.184.216.34"), 80}; }

// Fetches `path` through a fresh circuit; returns body via out-param.
struct FetchResult {
  bool connected = false;
  bu::Bytes body;
  bool ended = false;
  double seconds = -1;
};

FetchResult fetch_over_tor(bt::Testbed& bed, bt::OnionProxy& client,
                           const std::string& path) {
  FetchResult result;
  bt::PathConstraints constraints;
  constraints.exit_to = web_endpoint();
  client.build_circuit(constraints, [&](bt::CircuitOrigin* circ) {
    ASSERT_NE(circ, nullptr);
    bt::Stream::Callbacks cbs;
    cbs.on_data = [&result](bu::ByteView d) { bu::append(result.body, d); };
    cbs.on_end = [&result, &bed] {
      result.ended = true;
      result.seconds = bed.sim().now().seconds();
    };
    bt::Stream* stream = circ->open_stream(web_endpoint(), std::move(cbs));
    stream->set_on_connected([&result, stream, path] {
      result.connected = true;
      stream->send(bu::to_bytes("GET " + path + "\n"));
    });
  });
  bed.run();
  return result;
}
}  // namespace

TEST(TorE2E, CircuitBuildsThreeHops) {
  bt::Testbed bed;
  bed.finalize();
  auto client = bed.make_client("alice");
  bt::CircuitOrigin* built = nullptr;
  bt::PathConstraints constraints;
  client->build_circuit(constraints, [&](bt::CircuitOrigin* c) { built = c; });
  bed.run();
  ASSERT_NE(built, nullptr);
  EXPECT_TRUE(built->built());
  EXPECT_EQ(built->hop_count(), 3);
  EXPECT_EQ(client->open_circuits(), 1u);
}

TEST(TorE2E, CircuitBuildTakesRoundTrips) {
  bt::TestbedOptions opt;
  opt.min_latency = bu::Duration::millis(30);
  opt.max_latency = bu::Duration::millis(30);
  bt::Testbed bed(opt);
  bed.finalize();
  auto client = bed.make_client("alice");
  double built_at = -1;
  client->build_circuit({}, [&](bt::CircuitOrigin* c) {
    ASSERT_NE(c, nullptr);
    built_at = bed.sim().now().seconds();
  });
  bed.run();
  // 3 handshake round trips over 1,2,3 hops = (2+4+6)*30ms = 360ms plus
  // serialization; must be at least that and not wildly more.
  EXPECT_GE(built_at, 0.36);
  EXPECT_LT(built_at, 0.60);
}

TEST(TorE2E, FetchSmallPageThroughExit) {
  bt::Testbed bed;
  bed.finalize();
  bed.add_web_server(web_endpoint().addr, [](const std::string& path) {
    return bu::to_bytes("response for " + path);
  });
  auto client = bed.make_client("alice");
  auto result = fetch_over_tor(bed, *client, "/index.html");
  EXPECT_TRUE(result.connected);
  EXPECT_TRUE(result.ended);
  EXPECT_EQ(bu::to_string(result.body), "response for /index.html");
}

TEST(TorE2E, FetchLargeBodyCrossesManyCells) {
  // 600,000 B is more than the exit's 1,000-cell circuit window: the body
  // arrives only if the client's circuit SENDMEs refill it.
  for (const std::size_t size : {300'000u, 600'000u}) {
    bt::Testbed bed;
    bed.finalize();
    bu::Rng content_rng(99);
    const bu::Bytes big = content_rng.bytes(size);
    bed.add_web_server(web_endpoint().addr,
                       [&big](const std::string&) { return big; });
    auto client = bed.make_client("alice");
    auto result = fetch_over_tor(bed, *client, "/big");
    EXPECT_TRUE(result.ended) << size;
    EXPECT_EQ(result.body, big) << size;  // byte-for-byte through 3 onion layers
  }
}

TEST(TorE2E, MissingPageReturns404) {
  bt::Testbed bed;
  bed.finalize();
  bed.add_web_server(web_endpoint().addr, [](const std::string& path)
                         -> std::optional<bu::Bytes> {
    if (path == "/exists") return bu::to_bytes("ok");
    return std::nullopt;
  });
  auto client = bed.make_client("alice");
  auto result = fetch_over_tor(bed, *client, "/missing");
  EXPECT_TRUE(result.ended);
  EXPECT_EQ(bu::to_string(result.body), "404 not found\n");
}

TEST(TorE2E, ExitPolicyRefusesStream) {
  bt::TestbedOptions opt;
  opt.exit_policy = "accept *:443\nreject *:*";  // port 80 refused
  bt::Testbed bed(opt);
  bed.finalize();
  bed.add_web_server(web_endpoint().addr,
                     [](const std::string&) { return bu::to_bytes("x"); });
  auto client = bed.make_client("alice");

  bool connected = false, ended = false;
  bt::PathConstraints constraints;  // internal circuit: last hop may be any relay
  client->build_circuit(constraints, [&](bt::CircuitOrigin* circ) {
    ASSERT_NE(circ, nullptr);
    bt::Stream::Callbacks cbs;
    cbs.on_connected = [&] { connected = true; };
    cbs.on_end = [&] { ended = true; };
    circ->open_stream(web_endpoint(), std::move(cbs));
  });
  bed.run();
  EXPECT_FALSE(connected);
  EXPECT_TRUE(ended);
}

// The exit's end of a clearnet stream is its TCP connection: an END from
// the client closes it, so the server sees the Open and then the End.
TEST(TorE2E, ClientEndClosesTheExitsTcpConnection) {
  bt::Testbed bed;
  bed.finalize();
  bt::WebServer& server = bed.add_web_server(
      web_endpoint().addr, [](const std::string&) { return bu::to_bytes("x"); });
  auto client = bed.make_client("alice");
  bool connected = false;
  bt::PathConstraints c;
  c.exit_to = web_endpoint();
  client->build_circuit(c, [&](bt::CircuitOrigin* circ) {
    ASSERT_NE(circ, nullptr);
    bt::Stream* stream = circ->open_stream(web_endpoint(), {});
    stream->set_on_connected([&connected, stream] {
      connected = true;
      stream->end();
    });
  });
  bed.run();
  EXPECT_TRUE(connected);
  EXPECT_EQ(bed.net().stats(server.node()).messages_received, 2u);  // Open, End
  EXPECT_EQ(server.requests_served(), 0u);
}

TEST(TorE2E, UnknownDestinationEndsStream) {
  bt::Testbed bed;
  bed.finalize();
  auto client = bed.make_client("alice");
  bool ended = false;
  bt::PathConstraints c;
  c.exit_to = web_endpoint();
  client->build_circuit(c, [&](bt::CircuitOrigin* circ) {
    ASSERT_NE(circ, nullptr);
    bt::Stream::Callbacks cbs;
    cbs.on_end = [&] { ended = true; };
    circ->open_stream(web_endpoint(), std::move(cbs));  // no server registered
  });
  bed.run();
  EXPECT_TRUE(ended);
}

namespace {
/// Local echo app bound to a relay port: echoes every chunk back n times.
class EchoApp {
 public:
  explicit EchoApp(int repeat = 1) : repeat_(repeat) {}
  bt::StreamAcceptor acceptor() {
    return [this](bt::Stream& stream) { return on_stream_open(stream); };
  }
  bool on_stream_open(bt::Stream& stream) {
    ++opened_;
    stream.set_on_data([&stream, this](bu::ByteView data) {
      for (int i = 0; i < repeat_; ++i) stream.send(bu::Bytes(data.begin(), data.end()));
    });
    stream.set_on_end([this] { ++closed_; });
    return accept_;
  }
  int opened_ = 0;
  int closed_ = 0;
  bool accept_ = true;
  int repeat_;
};
}  // namespace

TEST(TorE2E, LocalAppStreamEcho) {
  bt::Testbed bed;
  bed.finalize();
  EchoApp app;
  bt::Router& box = bed.router(bed.router_count() - 1);
  box.bind_local_app(8888, app.acceptor());

  auto client = bed.make_client("alice");
  bu::Bytes received;
  bool connected = false;
  bt::PathConstraints c;
  c.last_hop = box.fingerprint();
  client->build_circuit(c, [&](bt::CircuitOrigin* circ) {
    ASSERT_NE(circ, nullptr);
    bt::Stream::Callbacks cbs;
    cbs.on_data = [&](bu::ByteView d) { bu::append(received, d); };
    bt::Stream* stream = circ->open_stream({box.addr(), 8888}, std::move(cbs));
    stream->set_on_connected([&connected, stream] {
      connected = true;
      stream->send(bu::to_bytes("ping"));
    });
  });
  bed.run();
  EXPECT_TRUE(connected);
  EXPECT_EQ(app.opened_, 1);
  EXPECT_EQ(bu::to_string(received), "ping");
}

namespace {
/// Sits on a relay's node in front of its Router. Once armed, flips one
/// data byte of the next RELAY frame from `upstream`, then hands every frame
/// to the Router as the network would.
class TamperShim : public bs::MessageHandler {
 public:
  TamperShim(bt::Router& router, bs::NodeId upstream) : router_(router), upstream_(upstream) {}
  void on_message(bs::NodeId from, bu::Bytes data) override {
    if (armed && from == upstream_ && bt::is_framed_cell(data) &&
        bt::frame_command(data) == bt::CellCommand::Relay) {
      bt::frame_payload(data)[bt::kRelayHeaderLen + 2] ^= 0x01;
      armed = false;
      ++flipped;
    }
    router_.on_message(from, std::move(data));
  }
  void on_peer_down(bs::NodeId peer) override { router_.on_peer_down(peer); }
  bool armed = false;
  int flipped = 0;

 private:
  bt::Router& router_;
  bs::NodeId upstream_;
};
}  // namespace

// The middle hop forwards a cell in the frame it arrived in, so a flipped
// ciphertext bit must still travel to the exit and break its running digest
// there: one digest mismatch, the circuit destroyed, the client's stream
// ended, and nothing delivered to the app.
TEST(TorE2E, TamperedCellThroughMiddleHopDestroysCircuitAtExit) {
  bt::Testbed bed;
  bed.finalize();
  EchoApp app;
  bt::Router& box = bed.router(bed.router_count() - 1);
  box.bind_local_app(8888, app.acceptor());

  auto client = bed.make_client("alice");
  bt::CircuitOrigin* circ = nullptr;
  bt::PathConstraints c;
  c.last_hop = box.fingerprint();
  client->build_circuit(c, [&](bt::CircuitOrigin* built) { circ = built; });
  bed.run();
  ASSERT_NE(circ, nullptr);
  ASSERT_EQ(circ->hop_count(), 3);
  bt::Router* middle = bed.router_by_fingerprint(circ->path()[1].fingerprint());
  ASSERT_NE(middle, nullptr);
  TamperShim shim(*middle, circ->path()[0].node);
  bed.net().attach(middle->node(), &shim);

  bento::obs::Counter mismatches =
      bento::obs::registry().counter("tor.recognition.digest_mismatches");
  const std::uint64_t mismatches_before = mismatches.value();
  bool connected = false;
  bool ended = false;
  bu::Bytes received;
  bt::Stream::Callbacks cbs;
  cbs.on_data = [&](bu::ByteView d) { bu::append(received, d); };
  cbs.on_end = [&] { ended = true; };
  bt::Stream* stream = circ->open_stream({box.addr(), 8888}, std::move(cbs));
  stream->set_on_connected([&, stream] {
    connected = true;
    shim.armed = true;  // BEGIN went through untouched; tamper with the DATA
    stream->send(bu::to_bytes("ping"));
  });
  bed.run();

  EXPECT_TRUE(connected);
  EXPECT_EQ(shim.flipped, 1);
  EXPECT_EQ(mismatches.value() - mismatches_before, 1u);
  EXPECT_TRUE(circ->destroyed());
  EXPECT_TRUE(ended);
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(app.opened_, 1);
  EXPECT_EQ(app.closed_, 1);  // the exit tore the stream down with the circuit
}

TEST(TorE2E, LocalAppCanRefuseStream) {
  bt::Testbed bed;
  bed.finalize();
  EchoApp app;
  app.accept_ = false;
  bt::Router& box = bed.router(0);
  box.bind_local_app(8888, app.acceptor());

  auto client = bed.make_client("alice");
  bool connected = false, ended = false;
  bt::PathConstraints c;
  c.last_hop = box.fingerprint();
  client->build_circuit(c, [&](bt::CircuitOrigin* circ) {
    bt::Stream::Callbacks cbs;
    cbs.on_connected = [&] { connected = true; };
    cbs.on_end = [&] { ended = true; };
    circ->open_stream({box.addr(), 8888}, std::move(cbs));
  });
  bed.run();
  EXPECT_FALSE(connected);
  EXPECT_TRUE(ended);
}

TEST(TorE2E, UnboundPortEndsStream) {
  bt::Testbed bed;
  bed.finalize();
  bt::Router& box = bed.router(0);
  auto client = bed.make_client("alice");
  bool ended = false;
  bt::PathConstraints c;
  c.last_hop = box.fingerprint();
  client->build_circuit(c, [&](bt::CircuitOrigin* circ) {
    bt::Stream::Callbacks cbs;
    cbs.on_end = [&] { ended = true; };
    circ->open_stream({box.addr(), 7777}, std::move(cbs));
  });
  bed.run();
  EXPECT_TRUE(ended);
}

TEST(TorE2E, LargeUploadToLocalApp) {
  // Client -> relay direction exercises the origin-side package windows and
  // the SENDMEs the edge returns (forward flow control).
  bt::Testbed bed;
  bed.finalize();

  struct SinkApp {
    bu::Bytes received;
    bool ended = false;
  } app;
  bt::Router& box = bed.router(1);
  box.bind_local_app(9000, [&app](bt::Stream& stream) {
    stream.set_on_data([&app](bu::ByteView d) { bu::append(app.received, d); });
    stream.set_on_end([&app] { app.ended = true; });
    return true;
  });

  auto client = bed.make_client("alice");
  bu::Rng rng(5);
  const bu::Bytes upload = rng.bytes(600'000);  // > 1000 cells: needs SENDMEs

  bt::PathConstraints c;
  c.last_hop = box.fingerprint();
  client->build_circuit(c, [&](bt::CircuitOrigin* circ) {
    ASSERT_NE(circ, nullptr);
    bt::Stream* stream = circ->open_stream({box.addr(), 9000}, {});
    stream->set_on_connected([&upload, stream] {
      stream->send(upload);
      stream->end();
    });
  });
  bed.run();
  EXPECT_EQ(app.received, upload);
  EXPECT_TRUE(app.ended);
}

// Three replies on one circuit: the first two use up the exit's 1,000-cell
// circuit window, so the third waits on that window alone. Its own stream
// window is open and it has sent nothing that a stream SENDME could answer:
// only a circuit SENDME, which pumps every blocked stream, releases it.
TEST(TorE2E, CircuitSendmeResumesEveryBlockedStream) {
  bt::Testbed bed;
  bed.finalize();
  bu::Rng content_rng(17);
  const std::vector<bu::Bytes> replies = {
      content_rng.bytes(300'000), content_rng.bytes(300'000), content_rng.bytes(5'000)};
  bt::Router& box = bed.router(bed.router_count() - 1);
  box.bind_local_app(8888, [&replies](bt::Stream& stream) {
    // The request names the reply; the streams stay open, so the first one
    // keeps the lowest id throughout.
    stream.set_on_data([&replies, &stream](bu::ByteView request) {
      stream.send(replies.at(static_cast<std::size_t>(request[0] - '0')));
    });
    return true;
  });

  auto client = bed.make_client("alice");
  std::vector<bu::Bytes> received(replies.size());
  bt::PathConstraints c;
  c.last_hop = box.fingerprint();
  client->build_circuit(c, [&](bt::CircuitOrigin* circ) {
    ASSERT_NE(circ, nullptr);
    for (std::size_t i = 0; i < replies.size(); ++i) {
      bt::Stream::Callbacks cbs;
      cbs.on_data = [&received, i](bu::ByteView d) { bu::append(received[i], d); };
      bt::Stream* stream = circ->open_stream({box.addr(), 8888}, std::move(cbs));
      stream->set_on_connected([stream, i] {
        stream->send(bu::to_bytes(std::string(1, static_cast<char>('0' + i))));
      });
    }
  });
  bed.run();
  for (std::size_t i = 0; i < replies.size(); ++i) {
    EXPECT_EQ(received[i].size(), replies[i].size()) << "stream " << i;
    EXPECT_EQ(received[i], replies[i]) << "stream " << i;
  }
}

TEST(TorE2E, CoverDropCellsAbsorbedAtExit) {
  bt::Testbed bed;
  bed.finalize();
  auto client = bed.make_client("alice");
  bt::CircuitOrigin* circ = nullptr;
  client->build_circuit({}, [&](bt::CircuitOrigin* c) { circ = c; });
  bed.run();
  ASSERT_NE(circ, nullptr);

  bt::Router* last = bed.router_by_fingerprint(circ->path().back().fingerprint());
  ASSERT_NE(last, nullptr);
  const auto before = last->counters().cells_dropped;
  const bu::Bytes padding(bt::kRelayDataMax, 0);
  for (int i = 0; i < 25; ++i) {
    bt::RelayCell drop;
    drop.relay_cmd = bt::RelayCommand::Drop;
    drop.data = padding;
    circ->send_relay(drop);
  }
  bed.run();
  EXPECT_EQ(last->counters().cells_dropped, before + 25);
}

TEST(TorE2E, DestroyTearsDownWholeCircuit) {
  bt::Testbed bed;
  bed.finalize();
  auto client = bed.make_client("alice");
  bt::CircuitOrigin* circ = nullptr;
  client->build_circuit({}, [&](bt::CircuitOrigin* c) { circ = c; });
  bed.run();
  ASSERT_NE(circ, nullptr);

  bool destroyed_cb = false;
  circ->set_on_destroy([&] { destroyed_cb = true; });
  circ->destroy();
  client->forget(circ);
  bed.run();
  EXPECT_TRUE(destroyed_cb);
  EXPECT_EQ(client->open_circuits(), 0u);
}

TEST(TorE2E, TwoClientsConcurrentFetches) {
  bt::Testbed bed;
  bed.finalize();
  bed.add_web_server(web_endpoint().addr, [](const std::string& path) {
    return bu::to_bytes("body:" + path);
  });
  auto alice = bed.make_client("alice");
  auto bob = bed.make_client("bob");
  auto r1 = fetch_over_tor(bed, *alice, "/a");
  auto r2 = fetch_over_tor(bed, *bob, "/b");
  EXPECT_EQ(bu::to_string(r1.body), "body:/a");
  EXPECT_EQ(bu::to_string(r2.body), "body:/b");
}

TEST(TorE2E, ManySequentialStreamsOnOneCircuit) {
  bt::Testbed bed;
  bed.finalize();
  bed.add_web_server(web_endpoint().addr, [](const std::string& path) {
    return bu::to_bytes("R" + path);
  });
  auto client = bed.make_client("alice");
  bt::PathConstraints c;
  c.exit_to = web_endpoint();
  bt::CircuitOrigin* circ = nullptr;
  client->build_circuit(c, [&](bt::CircuitOrigin* built) { circ = built; });
  bed.run();
  ASSERT_NE(circ, nullptr);

  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    bt::Stream::Callbacks cbs;
    auto body = std::make_shared<bu::Bytes>();
    const std::string path = "/r" + std::to_string(i);
    cbs.on_data = [body](bu::ByteView d) { bu::append(*body, d); };
    cbs.on_end = [body, &completed, path] {
      EXPECT_EQ(bu::to_string(*body), "R" + path);
      ++completed;
    };
    bt::Stream* stream = circ->open_stream(web_endpoint(), std::move(cbs));
    stream->set_on_connected([stream, path] { stream->send(bu::to_bytes("GET " + path + "\n")); });
    bed.run();
  }
  EXPECT_EQ(completed, 10);
}

TEST(Transport, SlowStartRounds) {
  EXPECT_EQ(bt::slow_start_rounds(1000), 0);
  EXPECT_EQ(bt::slow_start_rounds(bt::kInitCwndBytes), 0);
  EXPECT_EQ(bt::slow_start_rounds(bt::kInitCwndBytes + 1), 1);
  EXPECT_GT(bt::slow_start_rounds(1'000'000), 3);
  EXPECT_LT(bt::slow_start_rounds(1'000'000'000ULL), 41);
}

// Table 2's rows rest on the web server's first-byte delay: one round trip
// for the handshake plus one per slow-start round of the body. Its
// --no-slow-start ablation drops the rounds and keeps the handshake.
TEST(WebServer, SlowStartDelaysTheFirstByteByOneRoundTripPerRound) {
  static constexpr std::size_t kBodyBytes = 1'000'000;
  std::int64_t rtt_us = -1;
  // Sim time from sending the GET to the first response byte, over a relay's
  // raw clearnet connection (no circuit, so the fetch is the only traffic).
  auto first_byte_us = [&rtt_us](bool slow_start) {
    bt::Testbed bed;
    bed.finalize();
    bt::WebServer& server = bed.add_web_server(
        web_endpoint().addr, [](const std::string&) { return bu::Bytes(kBodyBytes, 'x'); });
    server.set_slow_start(slow_start);
    bt::Router& relay = bed.router(0);
    rtt_us = (bed.net().latency(relay.node(), server.node()) * 2.0).count_micros();
    std::uint64_t conn = 0;
    std::int64_t sent_us = -1;
    std::int64_t first_us = -1;
    std::size_t received = 0;
    bt::TcpClient::Callbacks cbs;
    cbs.on_open = [&] {
      sent_us = bed.sim().now().micros();
      relay.clearnet_send(conn, bu::to_bytes("GET /\n"));
    };
    cbs.on_data = [&](bu::ByteView d) {
      if (first_us < 0) first_us = bed.sim().now().micros();
      received += d.size();
    };
    EXPECT_TRUE(relay.open_clearnet(web_endpoint(), std::move(cbs), &conn));
    bed.run();
    EXPECT_EQ(received, kBodyBytes);
    EXPECT_GE(sent_us, 0);
    return first_us - sent_us;
  };
  const std::int64_t with = first_byte_us(true);
  const std::int64_t without = first_byte_us(false);
  ASSERT_GT(rtt_us, 0);
  const int rounds = bt::slow_start_rounds(kBodyBytes);
  ASSERT_GT(rounds, 0);
  EXPECT_EQ(with - without, rounds * rtt_us);
  // The handshake round trip stays: half an RTT for the GET to arrive, one
  // RTT of handshake and half an RTT for the first chunk to come back.
  EXPECT_GE(without, 2 * rtt_us);
}
