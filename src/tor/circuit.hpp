// Client-side circuit: the origin endpoint that owns every onion layer.
//
// A CircuitOrigin builds a circuit hop by hop (CREATE, then EXTENDs) and
// opens streams over it; their SENDME flow control is the StreamTable in
// flow.hpp, which a relay's end of the circuit uses too. Two hidden-service
// extensions mirror how Tor joins rendezvous circuits:
//
//  * add_hop_keys()       — client side: appends the end-to-end layer from
//                           the hs-ntor handshake as a virtual 4th hop.
//  * enable_virtual_relay() — service side: the service *terminates* the
//                           virtual layer like a relay would (it checks the
//                           origin's forward digests and seals backward
//                           ones), and its real hops merely transport
//                           opaque payloads.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "sim/network.hpp"
#include "tor/cell.hpp"
#include "tor/flow.hpp"
#include "tor/ntor.hpp"
#include "tor/pathselect.hpp"
#include "tor/relaycrypto.hpp"
#include "tor/wire.hpp"
#include "util/rng.hpp"

namespace bento::tor {

class CircuitOrigin {
 public:
  using BuiltFn = std::function<void(bool ok)>;
  /// Handler for relay commands the circuit core does not consume
  /// (IntroEstablished, Introduce2, RendezvousEstablished, Rendezvous2...).
  using RelayFn = std::function<void(const RelayCell& rc, int hop)>;

  /// `own_node` is the simulator node this endpoint sends from.
  CircuitOrigin(sim::Network& net, sim::NodeId own_node, Path path, CircId circ_id,
                util::Rng& rng);

  CircId circ_id() const { return circ_id_; }
  const Path& path() const { return path_; }
  bool built() const { return built_; }
  bool destroyed() const { return destroyed_; }
  int hop_count() const { return static_cast<int>(layers_.size()); }

  /// Starts the CREATE/EXTEND ladder; `done(true)` when all hops are up.
  void build(BuiltFn done);

  /// Opens a stream through the last hop to `to`. For hidden-service
  /// circuits the address part is ignored by the service; the port selects
  /// the virtual service port.
  Stream* open_stream(const Endpoint& to, Stream::Callbacks cbs);

  /// Service side: invoked for incoming RELAY_BEGIN at the virtual hop.
  /// Return false to refuse. The Stream is already connected when handed over.
  void set_stream_acceptor(StreamAcceptor acceptor) { acceptor_ = std::move(acceptor); }

  /// Sends a relay cell to hop `hop` (default: last). Most callers use the
  /// stream API; hidden-service setup and the Cover function use this.
  void send_relay(const RelayCell& rc, int hop = -1);

  void set_relay_handler(RelayFn fn) { relay_handler_ = std::move(fn); }
  void set_on_destroy(std::function<void()> fn) { on_destroy_ = std::move(fn); }

  /// Client side of a rendezvous join: append the e2e layer as a virtual hop.
  void add_hop_keys(const LayerKeys& keys);
  /// Service side of a rendezvous join: terminate the e2e layer relay-style.
  void enable_virtual_relay(const LayerKeys& keys);

  /// Feed a framed cell addressed to this circuit (OnionProxy dispatches).
  /// The frame is handled in place and then kept to pack a later cell into.
  void handle_cell(util::Bytes frame);

  /// Tears down (DESTROY toward the guard) and fires stream/circuit ends.
  void destroy();

  /// Aborts an in-flight build: releases circuit and stream state first,
  /// then delivers the build callback (false) exactly once. The proxy calls
  /// this when the guard dies under a half-open circuit.
  void fail_build();

  /// Fails the build if it has not completed after `d` (0 disables). Armed
  /// when build() starts; a half-open circuit (relay crashed mid-handshake)
  /// otherwise waits forever.
  void set_build_timeout(util::Duration d) { build_timeout_ = d; }

  /// Fingerprint of the hop being negotiated when the build failed or timed
  /// out — what a rebuild should exclude. Empty when unknown.
  const std::string& failed_hop() const { return failed_hop_; }

 private:
  void continue_build();
  void handle_frame(std::span<std::uint8_t> frame);
  void dispatch_relay(const RelayCell& rc, int hop);
  /// Sends a CREATE or DESTROY in a frame from frames_.
  void send_cell(const Cell& cell);
  /// Packs `rc` into `frame` (taken from frames_; its payload may already
  /// hold rc.data), seals it for `hop`, onion-encrypts it and sends it.
  void send_relay(util::Bytes frame, const RelayCell& rc, int hop);
  void arm_build_timer();

  sim::Network& net_;
  sim::NodeId own_node_;
  Path path_;
  CircId circ_id_;
  util::Rng& rng_;
  FramePool frames_;

  std::vector<std::unique_ptr<LayerCrypto>> layers_;
  std::optional<LayerCrypto> virtual_relay_;
  std::size_t next_hop_to_build_ = 0;
  NtorClientState pending_ntor_;
  BuiltFn built_cb_;
  bool built_ = false;
  bool destroyed_ = false;

  // Stream cells leave through send_relay toward the last hop, which is
  // also the virtual hop of a hidden-service circuit.
  StreamTable streams_;
  StreamId next_stream_id_ = 1;

  StreamAcceptor acceptor_;
  RelayFn relay_handler_;
  std::function<void()> on_destroy_;
  // Sim time of construction (micros), the start of tor.circuit_build_us.
  std::int64_t created_us_;

  // Failure recovery (DESIGN.md §9). The build timer captures a weak ref to
  // alive_ so it never touches a deleted circuit.
  util::Duration build_timeout_ = util::Duration::seconds(30);
  bool failing_ = false;
  std::string failed_hop_;
  std::shared_ptr<char> alive_ = std::make_shared<char>('\0');
};

}  // namespace bento::tor
