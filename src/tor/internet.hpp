// The simulated clearnet: TCP-like connections and web servers.
//
// Exit relays (and Bento functions granted direct network access) reach
// external servers through `Internet`, which maps service addresses to
// simulator nodes. Connections speak a tiny framed protocol (OPEN / DATA /
// END) over the message network; web servers add the handshake and
// slow-start delay before their first response byte so that clearnet
// fetches show realistic TCP latency behaviour.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "tor/address.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace bento::tor {

/// Address book of the simulated Internet.
class Internet {
 public:
  void register_server(Addr addr, sim::NodeId node);
  std::optional<sim::NodeId> resolve(Addr addr) const;

 private:
  std::map<Addr, sim::NodeId> servers_;
};

/// Wire messages of the TCP-like protocol.
enum class TcpMsgType : std::uint8_t { Open = 1, OpenAck = 2, Data = 3, End = 4 };

struct TcpMsg {
  TcpMsgType type = TcpMsgType::Data;
  std::uint64_t conn_id = 0;
  Port dst_port = 0;       // Open only
  util::ByteView payload;  // Data only; views the sender's bytes or the wire

  /// One buffer of exactly the message's size, written once.
  util::Bytes pack() const;
  /// Parses in place: `payload` views `wire`.
  static TcpMsg unpack(util::ByteView wire);
};

/// Client side of a TCP-like connection pool; owned by an exit relay or a
/// Bento server. Not a sim node itself — it piggybacks on its owner's node.
class TcpClient {
 public:
  struct Callbacks {
    std::function<void()> on_open;                 // OpenAck received
    std::function<void(util::ByteView)> on_data;
    std::function<void()> on_end;
  };

  TcpClient(sim::Network& net, sim::NodeId own_node) : net_(net), node_(own_node) {}

  /// Opens a connection; returns the local connection id.
  std::uint64_t open(sim::NodeId server, Port port, Callbacks cbs);
  void send(std::uint64_t conn_id, util::ByteView data);
  void close(std::uint64_t conn_id);

  /// Feed incoming messages that belong to this client (the owner
  /// demultiplexes by message source/port).
  void on_message(sim::NodeId from, const TcpMsg& msg);

 private:
  struct Conn {
    sim::NodeId server;
    Callbacks cbs;
  };
  sim::Network& net_;
  sim::NodeId node_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, Conn> conns_;
};

/// TCP's initial congestion window: 10 segments of 1460 B (RFC 6928).
inline constexpr std::size_t kInitCwndBytes = 14600;

/// Slow-start rounds a sender needs before its window, starting at
/// kInitCwndBytes and doubling every round trip, has shipped `bytes` (at
/// most 40).
int slow_start_rounds(std::size_t bytes);

/// An HTTP-ish web server on the simulated Internet: maps request paths to
/// response bodies.
///
/// Requests are a single line "GET <path>". Responses are streamed in 8 KiB
/// DATA chunks. The first chunk waits one round trip for the handshake plus
/// one per slow-start round the response size needs (the closed-form TCP
/// latency model of Cardwell, Savage and Anderson, which captures what
/// Table 2 depends on: small transfers are RTT-bound). The model's
/// size/bandwidth term is left out because the node's links already pace
/// the chunk train.
class WebServer : public sim::MessageHandler {
 public:
  using ContentFn = std::function<std::optional<util::Bytes>(const std::string& path)>;

  WebServer(sim::Simulator& sim, sim::Network& net, ContentFn content)
      : sim_(sim), net_(net), content_(std::move(content)) {}

  void set_node(sim::NodeId node) { node_ = node; }
  sim::NodeId node() const { return node_; }

  /// Ablation switch (DESIGN.md §5): off, the first byte waits for the
  /// handshake only. On by default.
  void set_slow_start(bool on) { slow_start_ = on; }

  /// Random per-request server think time (drawn uniformly), modelling
  /// backend variance; defaults to none.
  void set_think_time(util::Duration min, util::Duration max, std::uint64_t seed);

  std::uint64_t requests_served() const { return requests_; }

  void on_message(sim::NodeId from, util::Bytes data) override;

 private:
  /// A connection key is (remote node, remote conn id).
  using ConnKey = std::pair<sim::NodeId, std::uint64_t>;

  void on_conn_data(const ConnKey& conn, util::ByteView data);
  void reply_data(const ConnKey& conn, util::ByteView data);
  void reply_end(const ConnKey& conn);

  sim::Simulator& sim_;
  sim::Network& net_;
  sim::NodeId node_ = sim::kInvalidNode;
  ContentFn content_;
  bool slow_start_ = true;
  util::Duration think_min_{};
  util::Duration think_max_{};
  util::Rng think_rng_{0};
  std::uint64_t requests_ = 0;
  std::map<ConnKey, std::string> partial_;  // request bytes until newline
};

}  // namespace bento::tor
