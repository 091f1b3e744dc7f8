// Hidden services end-to-end: introduction, rendezvous, e2e streams.
#include <gtest/gtest.h>

#include "tor/hs.hpp"
#include "tor/testbed.hpp"
#include "util/bytes.hpp"

namespace bt = bento::tor;
namespace bu = bento::util;

namespace {
struct HsFixture {
  bt::Testbed bed;
  std::unique_ptr<bt::OnionProxy> host_proxy;
  std::unique_ptr<bt::HiddenServiceHost> host;
  std::unique_ptr<bt::OnionProxy> client_proxy;

  explicit HsFixture(std::uint64_t seed = 7) : bed(make_options(seed)) {
    bed.finalize();
    host_proxy = bed.make_client("hs-host", 2e6);
    host = std::make_unique<bt::HiddenServiceHost>(*host_proxy, bed.directory(), 2);
    client_proxy = bed.make_client("hs-client");
  }

  static bt::TestbedOptions make_options(std::uint64_t seed) {
    bt::TestbedOptions o;
    o.seed = seed;
    o.guards = 3;
    o.middles = 5;
    o.exits = 2;
    return o;
  }

  bool start_service() {
    bool ok = false, done = false;
    host->start([&](bool success) {
      ok = success;
      done = true;
    });
    bed.run();
    return done && ok;
  }
};
}  // namespace

TEST(HiddenService, IntroBlobRoundTrip) {
  bu::Rng rng(1);
  auto service_key = bento::crypto::DhKeyPair::generate(rng);
  bu::Bytes cookie = rng.bytes(20);
  bu::Bytes skin = rng.bytes(16);
  auto blob = bt::make_intro_blob(service_key.public_value, "rend-fp", cookie, skin, rng);

  std::string fp;
  bu::Bytes got_cookie, got_skin;
  ASSERT_TRUE(bt::open_intro_blob(service_key, blob, &fp, &got_cookie, &got_skin));
  EXPECT_EQ(fp, "rend-fp");
  EXPECT_EQ(got_cookie, cookie);
  EXPECT_EQ(got_skin, skin);
}

TEST(HiddenService, IntroBlobWrongKeyFails) {
  bu::Rng rng(2);
  auto right = bento::crypto::DhKeyPair::generate(rng);
  auto wrong = bento::crypto::DhKeyPair::generate(rng);
  auto blob = bt::make_intro_blob(right.public_value, "fp", rng.bytes(20),
                                  rng.bytes(16), rng);
  std::string fp;
  bu::Bytes c, s;
  EXPECT_FALSE(bt::open_intro_blob(wrong, blob, &fp, &c, &s));
  EXPECT_FALSE(bt::open_intro_blob(right, bu::Bytes(10), &fp, &c, &s));
}

TEST(HiddenService, PublishesDescriptorOnStart) {
  HsFixture fx;
  ASSERT_TRUE(fx.start_service());
  auto desc = fx.bed.directory().fetch_hs(fx.host->onion_id());
  ASSERT_TRUE(desc.has_value());
  EXPECT_EQ(desc->intro_points.size(), 2u);
  EXPECT_TRUE(desc->verify());
}

TEST(HiddenService, ClientConnectsAndExchangesData) {
  HsFixture fx;
  ASSERT_TRUE(fx.start_service());

  // Service: uppercase echo.
  fx.host->set_stream_acceptor([](bt::Stream& stream) {
    stream.set_on_data([&stream](bu::ByteView data) {
      bu::Bytes out(data.begin(), data.end());
      for (auto& b : out) b = static_cast<std::uint8_t>(std::toupper(b));
      stream.send(out);
    });
    return true;
  });

  bt::HsClient hs_client(*fx.client_proxy, fx.bed.directory());
  bu::Bytes received;
  bool connected = false;
  hs_client.connect(fx.host->onion_id(), [&](bt::CircuitOrigin* circ) {
    ASSERT_NE(circ, nullptr);
    EXPECT_EQ(circ->hop_count(), 4);  // 3 real + e2e virtual hop
    bt::Stream::Callbacks cbs;
    cbs.on_data = [&](bu::ByteView d) { bu::append(received, d); };
    bt::Stream* stream = circ->open_stream({0, 80}, std::move(cbs));
    stream->set_on_connected([&connected, stream] {
      connected = true;
      stream->send(bu::to_bytes("hello hidden world"));
    });
  });
  fx.bed.run();
  EXPECT_TRUE(connected);
  EXPECT_EQ(bu::to_string(received), "HELLO HIDDEN WORLD");
  EXPECT_EQ(fx.host->active_rendezvous(), 1u);
}

TEST(HiddenService, LargeTransferFromService) {
  HsFixture fx(21);
  ASSERT_TRUE(fx.start_service());

  bu::Rng rng(3);
  const auto payload = std::make_shared<bu::Bytes>(rng.bytes(400'000));
  fx.host->set_stream_acceptor([payload](bt::Stream& stream) {
    stream.set_on_data([&stream, payload](bu::ByteView) {
      stream.send(*payload);
      stream.end();
    });
    return true;
  });

  bt::HsClient hs_client(*fx.client_proxy, fx.bed.directory());
  bu::Bytes received;
  bool ended = false;
  hs_client.connect(fx.host->onion_id(), [&](bt::CircuitOrigin* circ) {
    ASSERT_NE(circ, nullptr);
    bt::Stream::Callbacks cbs;
    cbs.on_data = [&](bu::ByteView d) { bu::append(received, d); };
    cbs.on_end = [&] { ended = true; };
    bt::Stream* stream = circ->open_stream({0, 80}, std::move(cbs));
    stream->set_on_connected([stream] { stream->send(bu::to_bytes("GET\n")); });
  });
  fx.bed.run();
  EXPECT_TRUE(ended);
  EXPECT_EQ(received, *payload);  // 800+ cells through the spliced circuits
}

TEST(HiddenService, UnknownOnionIdFails) {
  HsFixture fx;
  bt::HsClient hs_client(*fx.client_proxy, fx.bed.directory());
  bool called = false;
  hs_client.connect("0123456789abcdef", [&](bt::CircuitOrigin* circ) {
    called = true;
    EXPECT_EQ(circ, nullptr);
  });
  fx.bed.run();
  EXPECT_TRUE(called);
}

TEST(HiddenService, MultipleClientsSameService) {
  HsFixture fx(33);
  ASSERT_TRUE(fx.start_service());
  fx.host->set_stream_acceptor([](bt::Stream& stream) {
    stream.set_on_data([&stream](bu::ByteView d) { stream.send(bu::Bytes(d.begin(), d.end())); });
    return true;
  });

  bt::HsClient c1(*fx.client_proxy, fx.bed.directory());
  auto proxy2 = fx.bed.make_client("client2");
  bt::HsClient c2(*proxy2, fx.bed.directory());

  int echoes = 0;
  auto connect_and_echo = [&](bt::HsClient& hc, const std::string& msg) {
    hc.connect(fx.host->onion_id(), [&echoes, msg](bt::CircuitOrigin* circ) {
      ASSERT_NE(circ, nullptr);
      bt::Stream::Callbacks cbs;
      auto got = std::make_shared<bu::Bytes>();
      cbs.on_data = [got, msg, &echoes](bu::ByteView d) {
        bu::append(*got, d);
        if (got->size() == msg.size()) {
          EXPECT_EQ(bu::to_string(*got), msg);
          ++echoes;
        }
      };
      bt::Stream* stream = circ->open_stream({0, 80}, std::move(cbs));
      stream->set_on_connected([stream, msg] { stream->send(bu::to_bytes(msg)); });
    });
  };
  connect_and_echo(c1, "first client");
  connect_and_echo(c2, "second client");
  fx.bed.run();
  EXPECT_EQ(echoes, 2);
  EXPECT_EQ(fx.host->active_rendezvous(), 2u);
}

TEST(HiddenService, ReplicaWithClonedIdentityServes) {
  // Paper §8: LoadBalancer copies hostname+private key to replicas; a
  // replica must be able to answer an introduction for the same onion id.
  HsFixture fx(44);
  ASSERT_TRUE(fx.start_service());

  auto replica_proxy = fx.bed.make_client("replica", 2e6);
  bt::HiddenServiceHost replica(*replica_proxy, fx.bed.directory(),
                                fx.host->identity(), 2);
  replica.set_stream_acceptor([](bt::Stream& stream) {
    stream.set_on_data([&stream](bu::ByteView) {
      stream.send(bu::to_bytes("replica says hi"));
      stream.end();
    });
    return true;
  });
  EXPECT_EQ(replica.onion_id(), fx.host->onion_id());

  // Front end redirects every introduction to the replica.
  fx.host->set_intro_interceptor([&replica](bu::ByteView blob) {
    replica.handle_introduction(blob);
    return false;  // handled
  });

  bt::HsClient hs_client(*fx.client_proxy, fx.bed.directory());
  bu::Bytes received;
  hs_client.connect(fx.host->onion_id(), [&](bt::CircuitOrigin* circ) {
    ASSERT_NE(circ, nullptr);
    bt::Stream::Callbacks cbs;
    cbs.on_data = [&](bu::ByteView d) { bu::append(received, d); };
    bt::Stream* stream = circ->open_stream({0, 80}, std::move(cbs));
    stream->set_on_connected([stream] { stream->send(bu::to_bytes("GET\n")); });
  });
  fx.bed.run();
  EXPECT_EQ(bu::to_string(received), "replica says hi");
  EXPECT_EQ(replica.active_rendezvous(), 1u);
  EXPECT_EQ(fx.host->active_rendezvous(), 0u);
}
