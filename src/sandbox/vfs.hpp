// Chrooted virtual filesystem (paper §5.3: "limited space in a chrooted
// file system, so that clients cannot access any files but their own").
//
// Each container gets a Vfs rooted at its own namespace; path traversal
// ("..", absolute escapes) is normalized away so functions cannot reach
// other containers' data. Disk usage is charged to the container's
// ResourceAccountant. Storage is one of two backends chosen at
// construction: the in-memory MemoryBackend (plain for the Python
// container, sealed by FS-Protect for the Python-OP-SGX container) or the
// persistent sealed log store.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sandbox/resources.hpp"
#include "store/store.hpp"
#include "util/bytes.hpp"

namespace bento::sandbox {

/// Storage backend behind the chroot, taking the Vfs verbs on normalized
/// paths.
class VfsBackend {
 public:
  virtual ~VfsBackend() = default;
  virtual void write(const std::string& path, util::ByteView data) = 0;
  /// nullopt if absent; throws store::StoreError when the stored bytes fail
  /// to authenticate, so tampering never reads as a missing file.
  virtual std::optional<util::Bytes> read(const std::string& path) const = 0;
  virtual bool remove(const std::string& path) = 0;
  virtual std::vector<std::string> list() const = 0;
  /// The file's plaintext size, without unsealing it; nullopt if absent.
  /// The Vfs charges disk against these answers.
  virtual std::optional<std::size_t> size_of(const std::string& path) const = 0;
};

/// The in-memory backend: a map from path to a body sealed by a
/// store::Sealer, with a per-backend sequence number as nonce and the path
/// as AAD. The default NullSealer keeps bodies in the clear (the python
/// image); tee::FsProtect seals them under an ephemeral key.
class MemoryBackend : public VfsBackend {
 public:
  explicit MemoryBackend(
      std::unique_ptr<store::Sealer> sealer = store::make_null_sealer());
  void write(const std::string& path, util::ByteView data) override;
  std::optional<util::Bytes> read(const std::string& path) const override;
  bool remove(const std::string& path) override;
  std::vector<std::string> list() const override;
  /// The stored body's length less the sealer's tag. A body an operator cut
  /// shorter than the tag counts as empty (and fails to open on read).
  std::optional<std::size_t> size_of(const std::string& path) const override;

  /// The operator's view of one file: the body as stored (ciphertext under
  /// FS-Protect), writable as any disk is to whoever runs the box. Null if
  /// absent.
  util::Bytes* stored(const std::string& path);

 private:
  struct Entry {
    std::uint64_t seq;
    util::Bytes body;
  };
  std::unique_ptr<store::Sealer> sealer_;
  std::uint64_t seq_ = 0;
  std::map<std::string, Entry> files_;
};

/// Mounts a persistent sealed BlobStore (src/store) behind the chroot: the
/// container's files survive process crashes and come back byte-identical
/// through the store's crash-consistent replay. The store is owned by the
/// container (lifecycle) while its Volume lives in the server's
/// VolumeManager (durability across BentoServer::crash()).
class StoreBackend final : public VfsBackend {
 public:
  explicit StoreBackend(store::BlobStore* blob) : blob_(blob) {}
  void write(const std::string& path, util::ByteView data) override;
  std::optional<util::Bytes> read(const std::string& path) const override;
  bool remove(const std::string& path) override;
  std::vector<std::string> list() const override;
  std::optional<std::size_t> size_of(const std::string& path) const override;

 private:
  store::BlobStore* blob_;  // non-owning; the container outlives the mount
};

/// Normalizes a path inside the chroot: collapses ".", "..", duplicate
/// slashes; ".." never escapes the root. Returns a canonical "a/b/c" form.
std::string chroot_normalize(const std::string& path);

class Vfs {
 public:
  /// Charges `resources` for whatever `backend` already holds (a replayed
  /// persistent store), exactly as if those files had just been written;
  /// throws ResourceExceeded if they no longer fit the disk budget.
  Vfs(std::unique_ptr<VfsBackend> backend, ResourceAccountant& resources);

  void write(const std::string& path, util::ByteView data);
  std::optional<util::Bytes> read(const std::string& path) const;
  bool remove(const std::string& path);
  std::vector<std::string> list() const;

 private:
  std::unique_ptr<VfsBackend> backend_;
  ResourceAccountant& resources_;
};

}  // namespace bento::sandbox
