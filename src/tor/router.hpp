// The Tor relay (onion router).
//
// A Router terminates one onion layer per circuit through it and plays
// whichever roles the cells ask of it: middle (forwarding), exit (clearnet
// streams via the TCP-like Internet), introduction point, rendezvous point,
// and — for Bento — host of local applications reachable through streams to
// the relay's own address (the paper's "exit node policy to connect to the
// Bento server via localhost", §5).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "crypto/dh.hpp"
#include "crypto/sign.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "tor/cell.hpp"
#include "tor/directory.hpp"
#include "tor/exitpolicy.hpp"
#include "tor/flow.hpp"
#include "tor/internet.hpp"
#include "tor/relaycrypto.hpp"
#include "tor/wire.hpp"
#include "util/rng.hpp"

namespace bento::tor {

struct RelayConfig {
  std::string nickname;
  Addr addr = 0;
  Port or_port = 9001;
  double bandwidth = 1.25e6;  // consensus weight (bytes/sec)
  RelayFlags flags;
  ExitPolicy exit_policy = ExitPolicy::reject_all();
  util::Bytes bento_policy;
  double up_bytes_per_sec = 1.25e6;
  double down_bytes_per_sec = 1.25e6;
};

class Router : public sim::MessageHandler {
 public:
  Router(sim::Simulator& sim, sim::Network& net, Internet& internet,
         const RelayConfig& config, util::Rng rng);

  const RelayDescriptor& descriptor() const { return descriptor_; }
  std::string fingerprint() const { return descriptor_.fingerprint(); }
  sim::NodeId node() const { return node_; }
  Addr addr() const { return descriptor_.addr; }

  /// Uploads the self-signed descriptor.
  void publish(DirectoryAuthority& authority) const { authority.upload(descriptor_); }

  /// Consensus pointer used to resolve EXTEND targets; must outlive the
  /// router or be replaced before further use.
  void set_consensus(const Consensus* consensus) { consensus_ = consensus; }

  /// Binds a local application to a port on this relay's host (the Bento
  /// server binds one): streams to (relay addr, port) go to `accept`
  /// instead of the clearnet.
  void bind_local_app(Port port, StreamAcceptor accept);

  /// Direct clearnet access for local apps (Bento functions). Returns false
  /// if the address is unknown. The caller is responsible for policy checks
  /// (the Bento sandbox netfilter does them).
  bool open_clearnet(const Endpoint& to, TcpClient::Callbacks cbs,
                     std::uint64_t* conn_out);
  void clearnet_send(std::uint64_t conn, util::ByteView data);

  void on_message(sim::NodeId from, util::Bytes data) override;

  /// A neighboring node crashed: tear down every circuit through it,
  /// propagating DESTROY to the surviving side, and fail pending extends
  /// toward it.
  void on_peer_down(sim::NodeId peer) override;

  /// Simulates this relay crashing: drops all circuit, stream, intro and
  /// rendezvous state without sending a cell (a dead process can't). Every
  /// stream gets its on_end, so hosts release edge state and the clearnet
  /// exit's TCP connections close.
  void crash();

  struct Counters {
    std::uint64_t circuits_created = 0;
    std::uint64_t cells_dropped = 0;  // DROP (cover) cells absorbed here
  };
  const Counters& counters() const { return counters_; }

 private:
  using Key = std::pair<sim::NodeId, CircId>;

  struct Circuit {
    explicit Circuit(Router& router);

    sim::NodeId prev_peer = sim::kInvalidNode;
    CircId prev_id = 0;
    std::optional<Key> next;
    std::unique_ptr<LayerCrypto> crypto;
    // This end's streams: a local application's, or a clearnet exit's
    // wired to a TCP connection. Their cells go back toward the origin.
    StreamTable streams;
    std::optional<Key> spliced;  // rendezvous mate circuit
    util::Bytes intro_auth;   // non-empty on a service intro circuit
    util::Bytes rend_cookie;  // non-empty on a waiting rendezvous circuit
  };

  void handle_create(sim::NodeId from, const Cell& cell);
  void handle_created(sim::NodeId from, const Cell& cell);
  /// Peels or adds this hop's layer in the arriving frame itself and, unless
  /// the cell is for this hop, forwards that same frame.
  void handle_relay(sim::NodeId from, CircId circ_id, util::Bytes frame);
  void handle_destroy(sim::NodeId from, const Cell& cell);
  void handle_recognized(const Key& key, Circuit& circ, const RelayCell& rc);

  // Relay command handlers (cell recognized at this hop).
  void on_extend(const Key& key, Circuit& circ, const RelayCell& rc);
  void on_begin(const Key& key, Circuit& circ, const RelayCell& rc);
  void on_establish_intro(const Key& key, Circuit& circ, const RelayCell& rc);
  void on_introduce1(const RelayCell& rc);
  void on_establish_rendezvous(const Key& key, Circuit& circ, const RelayCell& rc);
  void on_rendezvous1(const Key& key, Circuit& circ, const RelayCell& rc);

  /// Seals+encrypts a relay cell at our layer and sends it toward the
  /// origin of `circ`.
  void send_backward(Circuit& circ, const RelayCell& rc);
  /// The same, packed into `frame` (taken from frames_), whose payload may
  /// already hold rc.data.
  void send_backward(Circuit& circ, const RelayCell& rc, util::Bytes frame);
  /// Sends a CREATE, CREATED or DESTROY in a frame from frames_.
  void send_cell(sim::NodeId to, const Cell& cell);
  /// Sends a framed RELAY cell on as circuit `circ_id` toward `to`.
  void forward_frame(sim::NodeId to, CircId circ_id, util::Bytes frame);

  void destroy_circuit(const Key& key, bool notify_prev, bool notify_next);

  Circuit* find_circuit(const Key& key);

  sim::Simulator& sim_;
  sim::Network& net_;
  Internet& internet_;
  util::Rng rng_;
  crypto::SigningKey identity_;
  crypto::DhKeyPair onion_key_;
  RelayDescriptor descriptor_;
  sim::NodeId node_;
  const Consensus* consensus_ = nullptr;

  std::map<Key, std::shared_ptr<Circuit>> circuits_;  // both sides keyed
  std::map<Key, Key> pending_extend_;                 // next-key -> prev-key
  std::map<sim::NodeId, CircId> next_circ_id_;        // per-peer allocator
  std::map<util::Bytes, Key> intro_points_;           // auth key -> circuit
  std::map<util::Bytes, Key> rend_points_;            // cookie -> circuit
  std::map<Port, StreamAcceptor> local_apps_;
  TcpClient tcp_;
  // Frames of cells that ended here, reused for the cells this relay
  // originates (its exit-side replies and control cells).
  FramePool frames_;
  Counters counters_;
};

}  // namespace bento::tor
