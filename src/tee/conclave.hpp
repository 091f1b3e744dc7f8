// Conclaves: "containers of enclaves" [34] (paper §5.4), plus the two
// building blocks Bento relies on:
//
//   * FsProtect   — the chroot's in-memory backend sealed under an
//                   *ephemeral* key generated at launch, so the operator
//                   only ever stores ciphertext (the paper's
//                   plausible-deniability argument, §6.2);
//   * SecureChannel — the attested TLS-style channel a Bento client opens
//                   to the function loader *inside* the conclave before
//                   uploading its function (§5.4: "the Bento client attests
//                   the container's image and establishes a secure TLS
//                   channel to the container's function loader").
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "crypto/dh.hpp"
#include "sandbox/vfs.hpp"
#include "store/sealer.hpp"
#include "tee/attestation.hpp"
#include "tee/enclave.hpp"
#include "tee/epc.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace bento::tee {

/// FS-Protect: the in-memory chroot backend with every body sealed by
/// ChaCha20-Poly1305 under an ephemeral key. The key is generated at launch,
/// never sealed, never exported — when the conclave dies the data is gone
/// for everyone. A tampered body raises store::StoreError on read.
class FsProtect final : public sandbox::MemoryBackend {
 public:
  explicit FsProtect(util::Rng& rng);
};

/// One half of an attested, AEAD-protected session. The server side binds
/// its handshake to an enclave quote (report_data = H(transcript)), which
/// the client checks before sending anything sensitive.
class SecureChannel {
 public:
  struct Hello {
    crypto::Gp dh_public = 0;
    util::Bytes to_bytes() const;
    static Hello from_bytes(util::ByteView b);
  };
  struct Accept {
    crypto::Gp dh_public = 0;
    Quote quote;  // report_data binds both DH publics
    util::Bytes to_bytes() const;
    static Accept from_bytes(util::ByteView b);
  };

  /// Client step 1.
  static Hello client_hello(crypto::DhKeyPair& ephemeral, util::Rng& rng);
  /// Server step: consumes the hello, emits Accept, returns the session.
  static SecureChannel server_accept(const Hello& hello, const Enclave& enclave,
                                     util::Rng& rng, Accept* out);
  /// Client step 2: verifies the quote binding + measurement, derives keys.
  /// expected_measurement guards against a different image answering.
  static std::optional<SecureChannel> client_finish(
      const crypto::DhKeyPair& ephemeral, const Accept& accept,
      const Measurement& expected_measurement);

  /// RFC 8439 ChaCha20-Poly1305 with per-direction sequence numbers.
  util::Bytes seal(util::ByteView plaintext);
  std::optional<util::Bytes> open(util::ByteView sealed);

 private:
  SecureChannel(crypto::ChaChaKey send_key, crypto::ChaChaKey recv_key);
  crypto::ChaChaKey send_key_;
  crypto::ChaChaKey recv_key_;
  std::uint64_t send_seq_ = 0;
  std::uint64_t recv_seq_ = 0;
};

/// A conclave: the runtime enclave, registered against the EPC. Its
/// container mounts FsProtect as the chroot.
class Conclave {
 public:
  /// `runtime_image` is the code whose measurement clients attest (the
  /// Bento execution environment, NOT individual functions — §5.4).
  Conclave(Platform& platform, EpcManager& epc, util::ByteView runtime_image,
           const std::string& name);
  ~Conclave();

  Conclave(const Conclave&) = delete;
  Conclave& operator=(const Conclave&) = delete;

  const Enclave& runtime() const { return runtime_; }

  /// Updates the EPC accounting for this conclave's working set.
  void set_memory_bytes(std::size_t bytes);
  std::size_t memory_bytes() const { return runtime_.memory_bytes(); }

  /// Baseline conclave memory overhead measured in [34] (§7.3: 7.3 MB).
  static constexpr std::size_t kBaselineOverheadBytes = 7'300'000;

 private:
  static std::uint64_t next_id();
  std::uint64_t id_;
  EpcManager& epc_;
  Enclave runtime_;
};

/// Sealer for a conclave's persistent blob store, the one sealing contract
/// for durable state: keys derive from the platform sealing secret and the
/// runtime measurement (derive_sealing_key), and the store's durably
/// reserved seqs are the nonces. Unlike FsProtect's ephemeral key, the
/// derivation is stable across restarts *of the same image on the same
/// platform* — what makes crash-consistent recovery possible at all, while
/// anyone without the platform+measurement pair (no attestation) derives
/// garbage and replay fails closed. A container's mount replays its volume
/// after a restart (Container::mount_store), so the key it derives is the
/// one any conclave of `measurement` on `platform` would.
std::unique_ptr<store::Sealer> make_store_sealer(const Platform& platform,
                                                 const Measurement& measurement,
                                                 const std::string& store_name);

}  // namespace bento::tee
