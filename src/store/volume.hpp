// Simulated durable media for the sealed blob store.
//
// A `Volume` models one node-local "disk" holding an ordered list of
// append-only segment files. Each segment tracks a `synced` watermark:
// bytes below it survive a node crash unconditionally; bytes above it are
// lost, except that a crash may keep a *partial prefix* of the unsynced
// tail of the active segment — the torn-write the CRC framing in
// store.cpp exists to detect. `VolumeManager` owns the volumes of one
// simulated host and draws the torn-prefix length from its own seeded
// Rng so chaos runs stay bit-reproducible.
//
// The manager is intentionally owned *above* the BentoServer/Conclave
// layer (by the server object that survives `crash()`), mirroring how a
// real host's disk outlives the enclave process on it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace bento::store {

/// One append-only segment "file". `data` holds durable and unsynced bytes
/// contiguously; `synced` is the crash-safe watermark.
struct Segment {
  std::uint64_t id = 0;
  util::Bytes data;
  std::size_t synced = 0;
};

class Volume {
 public:
  /// Opens a fresh segment (becomes the active one) with `reserve_bytes`
  /// of pre-allocated capacity so steady-state appends never reallocate.
  /// Rolling syncs every existing segment first (the fsync-before-close of
  /// a real segment file), which pins the invariant crash recovery leans
  /// on: unsynced bytes only ever live in the *active* segment's tail, so
  /// a crash can never open a hole in the middle of the log.
  Segment& create_segment(std::size_t reserve_bytes);

  /// Appends raw bytes to the active segment; returns the offset the bytes
  /// landed at. Requires at least one segment.
  std::size_t append(util::ByteView bytes);

  /// Marks every byte of every segment durable.
  void sync();

  /// Crash semantics: all unsynced bytes vanish, except the first
  /// `torn_keep_bytes` of the active segment's unsynced tail, which
  /// survive as a torn (possibly mid-frame) write.
  void crash(std::size_t torn_keep_bytes);

  /// Compaction support: atomically replaces every segment *positionally
  /// preceding* the one whose id is `keep_from_id` by a single fully-synced
  /// segment containing `compacted`. Position, not id order, defines the
  /// prefix — merged segments carry fresh (higher) ids, so an id comparison
  /// would leave a previous compaction's output behind as a duplicate.
  /// Returns the new segment's id.
  std::uint64_t replace_prefix(std::uint64_t keep_from_id, util::Bytes compacted);

  const std::vector<Segment>& segments() const { return segments_; }
  Segment* active() { return segments_.empty() ? nullptr : &segments_.back(); }

  std::size_t total_bytes() const;
  std::size_t unsynced_bytes() const;

  /// Fault-injection hooks for tests: drop / flip bytes at the very end of
  /// the log (the active segment's tail).
  void truncate_tail(std::size_t bytes);
  void corrupt_tail(std::size_t byte_from_end);
  /// Fault-injection: shear segment `index` down to `keep_bytes` — a clean
  /// mid-log loss (possibly at a frame boundary) that replay's cross-segment
  /// continuity check must detect. Throws on a bad index or growth.
  void shear_segment(std::size_t index, std::size_t keep_bytes);

 private:
  std::vector<Segment> segments_;
  std::uint64_t next_id_ = 1;
};

/// The per-host volume namespace, keyed by store name (function name).
/// Survives server crashes; `crash()` applies torn-write semantics to every
/// volume with deterministic draws from the manager's Rng.
class VolumeManager {
 public:
  explicit VolumeManager(std::uint64_t seed);

  /// Opens (creating if absent) the named volume.
  Volume& open(const std::string& key);
  Volume* find(const std::string& key);
  std::vector<std::string> keys() const;

  /// Node crash: every volume loses its unsynced bytes except a
  /// deterministically drawn torn prefix of each active segment.
  void crash();

 private:
  util::Rng rng_;
  std::map<std::string, std::unique_ptr<Volume>> volumes_;
};

}  // namespace bento::store
