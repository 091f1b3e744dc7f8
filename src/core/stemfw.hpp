// The Stem firewall (paper §5.3 "Container Interface to Tor Instance").
//
// Functions may use Stem-style control operations — build circuits, open
// streams over them, run hidden services — but only through this firewall,
// which (a) checks the container's syscall filter per operation class,
// (b) tracks which circuits each session owns so a function can only touch
// its own, and (c) caps the number of simultaneously owned circuits.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "sandbox/syscalls.hpp"
#include "tor/hs.hpp"
#include "tor/proxy.hpp"

namespace bento::core {

/// One container's window onto the host's Tor facilities.
class StemSession {
 public:
  StemSession(tor::OnionProxy& proxy, tor::DirectoryAuthority& directory,
              sandbox::SyscallFilter& filter, int max_circuits = 8);
  ~StemSession();

  using CircuitHandle = std::uint32_t;

  /// Builds a general-purpose circuit (TorCircuit). Handle 0 == failure.
  void build_circuit(const tor::PathConstraints& constraints,
                     std::function<void(CircuitHandle)> done);

  /// Opens a stream on an owned circuit. Returns nullptr for foreign or
  /// unknown handles. (TorCircuit)
  tor::Stream* open_stream(CircuitHandle handle, const tor::Endpoint& to,
                           tor::Stream::Callbacks cbs);

  /// Destroys an owned circuit.
  void destroy_circuit(CircuitHandle handle);

  /// Read access to the consensus (TorDirectory).
  const tor::Consensus& consensus();

  /// Spawns a hidden-service host on the dedicated onion proxy (TorHs).
  /// The paper's python-op-sgx container runs this OP inside the conclave
  /// because it holds the service's keying material.
  tor::HiddenServiceHost& create_hidden_service(int intro_count);
  tor::HiddenServiceHost& create_hidden_service(
      const tor::HiddenServiceHost::Identity& identity, int intro_count);

  std::size_t owned_circuits() const { return circuits_.size(); }

 private:
  tor::OnionProxy& proxy_;
  tor::DirectoryAuthority& directory_;
  sandbox::SyscallFilter& filter_;
  int max_circuits_;
  CircuitHandle next_handle_ = 1;
  std::map<CircuitHandle, tor::CircuitOrigin*> circuits_;
  std::vector<std::unique_ptr<tor::HiddenServiceHost>> hs_hosts_;
};

}  // namespace bento::core
