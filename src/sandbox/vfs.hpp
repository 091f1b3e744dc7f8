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

#include <functional>
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
  /// Size without materializing contents (recovery accounting). The default
  /// reads the file.
  virtual std::optional<std::size_t> size_of(const std::string& path) const;
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

  store::BlobStore& blob() { return *blob_; }

  /// Fired after every mutation (write/remove) — the container hooks this to
  /// schedule background compaction as a simulator event, so the event
  /// queue stays empty while the store is idle.
  void set_on_mutate(std::function<void()> fn) { on_mutate_ = std::move(fn); }

 private:
  store::BlobStore* blob_;  // non-owning; the container outlives the mount
  std::function<void()> on_mutate_;
};

/// Normalizes a path inside the chroot: collapses ".", "..", duplicate
/// slashes; ".." never escapes the root. Returns a canonical "a/b/c" form.
std::string chroot_normalize(const std::string& path);

class Vfs {
 public:
  Vfs(std::unique_ptr<VfsBackend> backend, ResourceAccountant& resources);

  void write(const std::string& path, util::ByteView data);
  std::optional<util::Bytes> read(const std::string& path) const;
  bool remove(const std::string& path);
  bool exists(const std::string& path) const;
  std::vector<std::string> list() const;
  std::size_t file_count() const { return sizes_.size(); }

  /// Rebuilds the size map and disk charges from whatever the backend
  /// already holds — called after mounting a recovered persistent store so
  /// replayed files are accounted exactly like freshly written ones.
  /// Throws (via ResourceAccountant) if the recovered state no longer fits
  /// the container's disk budget.
  void restore_accounting();

 private:
  std::unique_ptr<VfsBackend> backend_;
  ResourceAccountant& resources_;
  std::map<std::string, std::size_t> sizes_;  // for disk accounting deltas
};

}  // namespace bento::sandbox
