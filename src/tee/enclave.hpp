// Software-simulated trusted execution environment (paper §2.2, §5.4).
//
// The paper runs functions inside Intel SGX enclaves via the Graphene
// library OS and conclaves [34]. No SGX hardware exists here, so this
// module reproduces the *contract* of SGX at the API level:
//
//   * measurement  — MRENCLAVE := SHA-256 of the loaded code image;
//   * sealing      — keys derived from the platform sealing secret and
//                    the measurement (derive_sealing_key), so only the same
//                    enclave on the same platform can unseal;
//   * EPC limits   — the paper's 93 MiB usable protected memory, with
//                    paging beyond it (tee/epc.hpp);
//   * attestation  — quotes MACed with a platform key provisioned by the
//                    simulated Intel Attestation Service (tee/attestation.hpp).
//
// The simulation is honest about what it can and cannot show: it enforces
// the protocol-visible behaviour (who can decrypt what, what verifies), not
// hardware memory isolation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "crypto/chacha20.hpp"
#include "crypto/sha256.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace bento::tee {

/// MRENCLAVE-style code measurement.
using Measurement = crypto::Digest;

Measurement measure(util::ByteView code_image);
std::string measurement_hex(const Measurement& m);

/// A platform: one physical machine's TEE identity. Holds the sealing
/// secret and the attestation (EPID-style) key provisioned by the IAS.
class Platform {
 public:
  /// `tcb_version` models microcode patch level (checked by verifiers).
  Platform(std::uint64_t platform_id, std::uint32_t tcb_version, util::Rng& rng);

  std::uint64_t platform_id() const { return id_; }
  std::uint32_t tcb_version() const { return tcb_; }

  /// Used by attestation.cpp; derived key shared with the (simulated) IAS.
  const util::Bytes& attestation_key() const { return attestation_key_; }
  /// Platform sealing secret (never leaves the "hardware").
  const util::Bytes& sealing_secret() const { return sealing_secret_; }

  /// Simulates applying a microcode patch.
  void upgrade_tcb(std::uint32_t new_version);

 private:
  std::uint64_t id_;
  std::uint32_t tcb_;
  util::Bytes attestation_key_;
  util::Bytes sealing_secret_;
};

/// The SGX EGETKEY contract: a ChaCha20-Poly1305 key from HKDF over the
/// platform sealing secret, salted by the measurement, under `label`. Only
/// the same image on the same platform derives it again.
crypto::ChaChaKey derive_sealing_key(const Platform& platform,
                                     const Measurement& measurement,
                                     std::string_view label);

/// A loaded enclave instance.
class Enclave {
 public:
  Enclave(Platform& platform, util::ByteView code_image, std::string name);

  const Measurement& measurement() const { return measurement_; }
  const std::string& name() const { return name_; }
  const Platform& platform() const { return platform_; }

  /// Memory accounting hooks (wired to the EPC manager by the conclave).
  std::size_t memory_bytes() const { return memory_bytes_; }
  void set_memory_bytes(std::size_t bytes) { memory_bytes_ = bytes; }

 private:
  Platform& platform_;
  Measurement measurement_;
  std::string name_;
  std::size_t memory_bytes_ = 0;
};

}  // namespace bento::tee
