// Log-structured sealed blob store (DESIGN.md §15).
//
// One BlobStore owns one Volume and presents a path -> bytes namespace with
// crash-consistent recovery. Every mutation is one CRC-32C-framed record
// appended to the active segment:
//
//   offset  size  field
//        0     4  magic "BSF1"
//        4     4  CRC-32C over bytes [8, len)
//        8     4  len: total frame length, header included
//       12     8  seq: monotone record sequence (also the sealing nonce)
//       20     1  op: 0 Meta | 1 Put | 2 Remove
//       21     2  path length
//       23     1  pad (zero)
//       24     …  path bytes, then the sealed body
//
// Replay walks segments in order and truncates the log at the first frame
// whose header or CRC fails — the longest valid prefix — which is exactly
// the torn-write contract the Volume's crash semantics produce. A CRC-valid
// record whose body fails to unseal is *not* truncation: it means the
// sealing key is wrong (different platform / measurement), and replay fails
// closed by throwing.
//
// Meta records carry (in order): a format-version byte, a flag byte
// (sealed | compacted | chained), a 64-bit *sequence ceiling*, and the
// predecessor segment's byte length at roll time. The ceiling is the
// nonce-reuse guard: a Meta frame is always written synced, reserving
// `kSeqReserve` (store.cpp) sequence numbers, and no record is appended
// with a seq above the last durable ceiling. Recovery resumes at
// max(max seq seen, max ceiling seen) + 1, so a seq that was handed out
// before a crash — even one sealed into a torn tail an attacker may have
// snapshotted — is never paired with the key again. The chained
// predecessor length lets replay detect a mid-log hole (a non-active
// segment shortened at a frame boundary) and truncate everything after it;
// the check is skipped right after a compacted segment, whose length
// legitimately differs from what the successor recorded.
//
// Every segment begins with a Meta record so recovery can reject a log
// written under a different sealing mode before touching any body. The
// in-memory index maps each live path to its newest record; a record's
// plaintext exists only while a read unseals it from the log, so the store
// holds live state sealed and nowhere else. Overwritten and removed
// records become garbage; when the garbage ratio of the sealed
// (non-active) segments crosses `kCompactGarbageRatio` (store.cpp),
// compact() rewrites them, copying live records *verbatim* — bodies are
// never re-sealed, so a (key, seq) nonce pair is used at most once for the
// life of the log.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "store/sealer.hpp"
#include "store/volume.hpp"
#include "util/bytes.hpp"

namespace bento::store {

/// Thrown when recovery must fail closed: sealed-mode mismatch or a
/// CRC-valid record that does not authenticate under the provided key.
class StoreError : public std::runtime_error {
 public:
  explicit StoreError(const std::string& what) : std::runtime_error(what) {}
};

struct StoreOptions {
  /// Segment roll threshold; also the per-segment reserve, so steady-state
  /// appends never reallocate the segment buffer.
  std::size_t segment_bytes = 256 * 1024;
  /// Sync the volume after every append (full durability). Turned off by
  /// the bench / torn-write tests to expose unsynced tails to crashes.
  bool sync_every_append = true;
};

struct ReplayReport {
  std::size_t frames = 0;           // valid records replayed
  std::size_t bytes = 0;            // bytes of valid prefix
  std::size_t truncated_bytes = 0;  // torn/corrupt tail dropped
  bool torn = false;                // truncation happened
  std::size_t live_files = 0;
};

class BlobStore {
 public:
  BlobStore(Volume& volume, std::unique_ptr<Sealer> sealer,
            StoreOptions opts = {});
  ~BlobStore();

  BlobStore(const BlobStore&) = delete;
  BlobStore& operator=(const BlobStore&) = delete;

  /// Rebuilds the namespace from the volume's log. Must be the first call
  /// on a store opened over a non-empty volume. Throws StoreError when the
  /// log's sealing mode or key disagrees with the provided sealer.
  ReplayReport replay();

  void put(const std::string& path, util::ByteView data);
  /// True when the path existed.
  bool remove(const std::string& path);
  /// Unseals the path's newest record from the log; nullopt if absent.
  std::optional<util::Bytes> get(const std::string& path) const;
  bool contains(const std::string& path) const;
  std::optional<std::size_t> size_of(const std::string& path) const;
  std::vector<std::string> list() const;

  /// True when sealed-segment garbage crosses the configured ratio.
  bool wants_compaction() const;
  /// Rewrites all non-active segments, dropping dead records. Safe to call
  /// any time; no-op when there is nothing to drop.
  void compact();

  /// SHA-256 over the sorted (path, contents) namespace — the
  /// replay-determinism witness used by tests and the bench gate.
  crypto::Digest snapshot_digest() const;

  std::size_t live_files() const { return index_.size(); }
  std::size_t garbage_bytes() const { return garbage_bytes_; }
  std::size_t log_bytes() const { return volume_.total_bytes(); }
  std::uint64_t compactions() const { return compactions_; }

  Volume& volume() { return volume_; }
  const StoreOptions& options() const { return opts_; }

 private:
  enum class Op : std::uint8_t { Meta = 0, Put = 1, Remove = 2 };

  struct Entry {
    std::uint64_t seq = 0;
    std::uint64_t segment_id = 0;
    std::size_t offset = 0;     // frame start within the segment
    std::size_t frame_len = 0;  // whole frame, header included
    std::size_t plain_size = 0;
  };

  void append_meta();
  void append_record(Op op, const std::string& path, util::ByteView payload,
                     Entry* reuse);
  void roll_segment(std::size_t upcoming_frame);
  void retire(const Entry& e);
  util::Bytes read_and_unseal(const std::string& path, const Entry& e) const;
  std::size_t sealed_segment_bytes() const;

  Volume& volume_;
  std::unique_ptr<Sealer> sealer_;
  StoreOptions opts_;
  std::map<std::string, Entry> index_;
  util::Bytes frame_scratch_;   // reused per append: 0-alloc steady state
  std::uint64_t next_seq_ = 1;
  std::uint64_t seq_ceiling_ = 0;  // last durably reserved seq (inclusive)
  std::size_t garbage_bytes_ = 0;
  std::uint64_t compactions_ = 0;
  bool replayed_ = false;
};

}  // namespace bento::store
