// The simulated clearnet: TCP-like connections and web servers.
//
// Exit relays (and Bento functions granted direct network access) reach
// external servers through `Internet`, which maps service addresses to
// simulator nodes. Connections speak a tiny framed protocol (OPEN / DATA /
// END) over the message network; servers add the handshake + slow-start
// delay from sim/transport.hpp before their first response byte so that
// clearnet fetches show realistic TCP latency behaviour.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/transport.hpp"
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

/// Base class for servers on the simulated Internet.
class TcpServer : public sim::MessageHandler {
 public:
  TcpServer(sim::Simulator& sim, sim::Network& net) : sim_(sim), net_(net) {}

  void set_node(sim::NodeId node) { node_ = node; }
  sim::NodeId node() const { return node_; }

  void on_message(sim::NodeId from, util::Bytes data) final;

 protected:
  /// A connection key is (remote node, remote conn id).
  using ConnKey = std::pair<sim::NodeId, std::uint64_t>;

  virtual void on_conn_open(const ConnKey& conn, Port dst_port) = 0;
  virtual void on_conn_data(const ConnKey& conn, util::ByteView data) = 0;
  virtual void on_conn_end(const ConnKey& conn) = 0;

  void reply_data(const ConnKey& conn, util::ByteView data);
  void reply_end(const ConnKey& conn);

  sim::Simulator& sim_;
  sim::Network& net_;

 private:
  sim::NodeId node_ = sim::kInvalidNode;
};

/// An HTTP-ish web server: maps request paths to response bodies.
///
/// Requests are a single line "GET <path>". Responses are streamed in 8 KiB
/// DATA chunks; the first chunk is delayed by the TCP handshake/slow-start
/// model for the response size, the rest are paced by the node's uplink.
class WebServer : public TcpServer {
 public:
  using ContentFn = std::function<std::optional<util::Bytes>(const std::string& path)>;

  WebServer(sim::Simulator& sim, sim::Network& net, ContentFn content)
      : TcpServer(sim, net), content_(std::move(content)) {}

  /// TCP model knobs (ablation: disable slow start).
  sim::TcpModelParams& tcp_params() { return tcp_params_; }

  /// Random per-request server think time (drawn uniformly), modelling
  /// backend variance; defaults to none.
  void set_think_time(util::Duration min, util::Duration max, std::uint64_t seed);

  std::uint64_t requests_served() const { return requests_; }

 protected:
  void on_conn_open(const ConnKey& conn, Port dst_port) override;
  void on_conn_data(const ConnKey& conn, util::ByteView data) override;
  void on_conn_end(const ConnKey& conn) override;

 private:
  ContentFn content_;
  sim::TcpModelParams tcp_params_;
  util::Duration think_min_{};
  util::Duration think_max_{};
  util::Rng think_rng_{0};
  std::uint64_t requests_ = 0;
  std::map<ConnKey, std::string> partial_;  // request bytes until newline
};

}  // namespace bento::tor
