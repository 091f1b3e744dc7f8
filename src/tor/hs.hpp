// Hidden services (paper §2.1): host and client sides of the
// introduction/rendezvous protocol, built entirely on OnionProxy circuits.
//
// Host:   picks introduction points, ESTABLISH_INTROs to each, publishes a
//         signed descriptor to the HSDir, and answers INTRODUCE2s by
//         building a circuit to the client's rendezvous point and joining
//         it with RENDEZVOUS1. The client<->service layer comes from an
//         ntor handshake keyed by the service's published handshake key.
// Client: establishes a rendezvous cookie, INTRODUCE1s through one of the
//         descriptor's introduction points, and on RENDEZVOUS2 attaches the
//         e2e layer as a virtual 4th hop. The returned circuit then opens
//         streams to the service's virtual ports like any other circuit.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "tor/circuit.hpp"
#include "tor/directory.hpp"
#include "tor/proxy.hpp"

namespace bento::tor {

class HiddenServiceHost {
 public:
  /// `intro_count` introduction points are selected bandwidth-weighted.
  HiddenServiceHost(OnionProxy& proxy, DirectoryAuthority& directory,
                    int intro_count = 3);

  /// Destroys the host's intro and rendezvous circuits and disarms every
  /// callback they hold. The circuits live on the proxy, which may outlive
  /// the host (a crashed Bento server tears down its containers — and their
  /// hidden services — while the box's onion proxy survives).
  ~HiddenServiceHost();

  /// The pseudonymous identifier clients dial ("onion address").
  std::string onion_id() const { return onion_id_; }

  /// Establishes introduction circuits and publishes the descriptor.
  void start(std::function<void(bool ok)> ready);

  /// Called for every stream a connected client opens; return false to
  /// refuse. The Endpoint the client dialed is in the BEGIN payload (port
  /// selects the virtual service port; this simplified acceptor ignores it).
  void set_stream_acceptor(StreamAcceptor acceptor) { acceptor_ = std::move(acceptor); }

  /// Re-publishes the descriptor (used by LoadBalancer replica promotion).
  void publish_descriptor();

  /// Number of rendezvous circuits currently joined.
  std::size_t active_rendezvous() const { return active_rendezvous_; }

  /// Fires whenever active_rendezvous() changes (LoadBalancer load reports).
  void set_on_load_change(std::function<void(std::size_t)> fn) {
    on_load_change_ = std::move(fn);
  }

  /// Clone the service identity into another host (paper §8: LoadBalancer
  /// "copies all files (including the hostname and private key) to the new
  /// instance"). The replica can then answer rendezvous requests for the
  /// same onion id.
  struct Identity {
    crypto::SigningKey signing_key;
    crypto::DhKeyPair ntor_key;
  };
  const Identity& identity() const { return identity_; }
  HiddenServiceHost(OnionProxy& proxy, DirectoryAuthority& directory,
                    const Identity& identity, int intro_count = 3);

  /// Handles a relayed INTRODUCE2 blob directly (used when a front end
  /// forwards introductions to a replica instead of answering itself).
  void handle_introduction(util::ByteView blob);

  /// Hook observing each INTRODUCE2 before it is answered; return false to
  /// take over handling (LoadBalancer redirects to a replica).
  void set_intro_interceptor(std::function<bool(util::ByteView blob)> fn) {
    intro_interceptor_ = std::move(fn);
  }

 private:
  void establish_intro(std::size_t index, std::function<void(bool)> done);
  void on_introduce2(const RelayCell& rc);

  OnionProxy& proxy_;
  DirectoryAuthority& directory_;
  Identity identity_;
  std::string onion_id_;
  int intro_count_;
  std::vector<std::string> intro_fingerprints_;
  std::vector<CircuitOrigin*> intro_circuits_;
  std::vector<CircuitOrigin*> rend_circuits_;
  StreamAcceptor acceptor_;
  std::function<bool(util::ByteView)> intro_interceptor_;
  std::function<void(std::size_t)> on_load_change_;
  std::size_t active_rendezvous_ = 0;
  // Liveness token: circuit callbacks capture a weak_ptr and no-op once the
  // host is gone, so a cell arriving after teardown cannot touch freed state.
  std::shared_ptr<char> alive_ = std::make_shared<char>('\0');
};

class HsClient {
 public:
  HsClient(OnionProxy& proxy, const DirectoryAuthority& directory)
      : proxy_(proxy), directory_(directory) {}

  /// Connects to a hidden service. On success the callback receives the
  /// joined rendezvous circuit (owned by the proxy); streams opened on it
  /// reach the service. On failure it receives nullptr.
  void connect(const std::string& onion_id,
               std::function<void(CircuitOrigin*)> done);

 private:
  OnionProxy& proxy_;
  const DirectoryAuthority& directory_;
};

/// Builds the INTRODUCE1 payload: an ECIES-style blob only the service can
/// open, hiding the rendezvous point from the introduction point.
util::Bytes make_intro_blob(crypto::Gp service_ntor_pub,
                            const std::string& rend_fingerprint,
                            util::ByteView cookie, util::ByteView ntor_skin,
                            util::Rng& rng);

/// Service side: opens an intro blob. Returns false on decryption failure.
bool open_intro_blob(const crypto::DhKeyPair& service_ntor_key, util::ByteView blob,
                     std::string* rend_fingerprint, util::Bytes* cookie,
                     util::Bytes* ntor_skin);

}  // namespace bento::tor
