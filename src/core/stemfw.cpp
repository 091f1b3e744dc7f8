#include "core/stemfw.hpp"

#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sandbox/resources.hpp"

namespace bento::core {

namespace {
// Mediation of one Stem control-plane call: a stem.mediate span (inert when
// the request is untraced) around the capability check. On denial the span
// closes as a failure and the event is recorded into the flight recorder,
// then the sandbox exception propagates to kill the offending function.
void checked(sandbox::SyscallFilter& filter, sandbox::Syscall sc) {
  obs::SpanScope span(obs::Stage::StemMediate, static_cast<std::uint32_t>(sc));
  try {
    filter.check(sc);
  } catch (...) {
    span.set_ok(false);
    obs::trace(obs::Ev::StemDeny, static_cast<std::uint32_t>(sc),
               obs::Recorder::kStemSyscall, /*ok=*/false);
    throw;
  }
}
}  // namespace

StemSession::StemSession(tor::OnionProxy& proxy, tor::DirectoryAuthority& directory,
                         sandbox::SyscallFilter& filter, int max_circuits)
    : proxy_(proxy), directory_(directory), filter_(filter),
      max_circuits_(max_circuits) {}

StemSession::~StemSession() {
  // destroy() fires on_destroy callbacks that erase from circuits_;
  // detach the map before walking it.
  auto doomed = std::move(circuits_);
  circuits_.clear();
  for (auto& [handle, circ] : doomed) {
    if (circ == nullptr) continue;
    circ->set_on_destroy({});  // the session is dying; drop back-references
    if (!circ->destroyed()) {
      circ->destroy();
      proxy_.forget(circ);
    }
  }
}

void StemSession::build_circuit(const tor::PathConstraints& constraints,
                                std::function<void(CircuitHandle)> done) {
  checked(filter_, sandbox::Syscall::TorCircuit);
  if (circuits_.size() >= static_cast<std::size_t>(max_circuits_)) {
    obs::trace(obs::Ev::StemDeny, static_cast<std::uint32_t>(circuits_.size()),
               obs::Recorder::kStemCircuitCap, /*ok=*/false);
    throw sandbox::ResourceExceeded("stem: circuit cap reached");
  }
  proxy_.build_circuit(constraints, [this, done = std::move(done)](
                                        tor::CircuitOrigin* circ) {
    if (circ == nullptr) {
      done(0);
      return;
    }
    const CircuitHandle handle = next_handle_++;
    circuits_[handle] = circ;
    circ->set_on_destroy([this, handle] { circuits_.erase(handle); });
    done(handle);
  });
}

tor::Stream* StemSession::open_stream(CircuitHandle handle, const tor::Endpoint& to,
                                      tor::Stream::Callbacks cbs) {
  checked(filter_, sandbox::Syscall::TorCircuit);
  auto it = circuits_.find(handle);
  if (it == circuits_.end() || it->second == nullptr) return nullptr;
  return it->second->open_stream(to, std::move(cbs));
}

void StemSession::destroy_circuit(CircuitHandle handle) {
  auto it = circuits_.find(handle);
  if (it == circuits_.end()) return;
  tor::CircuitOrigin* circ = it->second;
  circuits_.erase(it);
  if (circ != nullptr && !circ->destroyed()) {
    circ->destroy();
    proxy_.forget(circ);
  }
}

const tor::Consensus& StemSession::consensus() {
  checked(filter_, sandbox::Syscall::TorDirectory);
  return proxy_.consensus();
}

tor::HiddenServiceHost& StemSession::create_hidden_service(int intro_count) {
  checked(filter_, sandbox::Syscall::TorHs);
  hs_hosts_.push_back(
      std::make_unique<tor::HiddenServiceHost>(proxy_, directory_, intro_count));
  return *hs_hosts_.back();
}

tor::HiddenServiceHost& StemSession::create_hidden_service(
    const tor::HiddenServiceHost::Identity& identity, int intro_count) {
  checked(filter_, sandbox::Syscall::TorHs);
  hs_hosts_.push_back(std::make_unique<tor::HiddenServiceHost>(
      proxy_, directory_, identity, intro_count));
  return *hs_hosts_.back();
}

}  // namespace bento::core
