// Hashcash-style proof-of-work (paper §9.4 / §11 "Lack of fairness").
//
// The paper repeatedly points at proofs of work [9, 25] as the natural
// client-puzzle mechanism for (a) rate-limiting function uploads and
// (b) hidden-service DDoS defense "as function-specific protocols, rather
// than modifying Tor's existing protocols". This module provides the
// primitive plus a native gatekeeper function that admits messages only
// when they carry a valid stamp.
//
// A stamp over (context, nonce) is valid at difficulty d iff
// SHA-256(context || nonce) has >= d leading zero bits.
#pragma once

#include <cstdint>
#include <optional>

#include "core/api.hpp"
#include "util/bytes.hpp"

namespace bento::functions {

/// Counts leading zero bits of a digest.
int leading_zero_bits(util::ByteView digest);

/// True if `nonce` is a valid stamp for `context` at `difficulty` bits.
bool pow_verify(util::ByteView context, std::uint64_t nonce, int difficulty);

/// Grinds a stamp (client side). Returns nullopt after max_attempts.
std::optional<std::uint64_t> pow_solve(util::ByteView context, int difficulty,
                                       std::uint64_t max_attempts = 1u << 26);

/// Native gatekeeper: install args = one byte of difficulty. Messages are
/// "<nonce-as-u64-hex>:<payload>"; valid stamps get "ADMIT:<payload>"
/// echoed back (a real deployment would forward to the protected service),
/// invalid ones get "DENY".
class PowGateFunction final : public core::Function {
 public:
  void on_install(core::HostApi& api, util::ByteView args) override;
  void on_message(core::HostApi& api, util::Bytes payload) override;

  static constexpr const char* kContext = "bento-pow-gate-v1";

 private:
  int difficulty_ = 16;
  std::uint64_t admitted_ = 0;
  std::uint64_t denied_ = 0;
};

void register_pow_gate(core::NativeRegistry& registry);
core::FunctionManifest pow_gate_manifest();

}  // namespace bento::functions
