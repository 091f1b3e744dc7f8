// Unit suite for the log-structured sealed blob store (DESIGN.md §15):
// frame round-trips, the zero-alloc sealer against the reference AEAD,
// torn/corrupt-tail recovery to the longest valid prefix, fail-closed
// replay under the wrong key, and compaction.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "crypto/poly1305.hpp"
#include "store/crc32.hpp"
#include "store/sealer.hpp"
#include "store/store.hpp"
#include "store/volume.hpp"
#include "util/rng.hpp"

namespace bs = bento::store;
namespace bu = bento::util;
namespace bcr = bento::crypto;

namespace {

bcr::ChaChaKey test_key(std::uint8_t fill) {
  bcr::ChaChaKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(fill + i);
  }
  return key;
}

/// A store over `volume` with the given sealer; replays iff the volume
/// already holds a log.
std::unique_ptr<bs::BlobStore> open_store(bs::Volume& volume,
                                          std::unique_ptr<bs::Sealer> sealer,
                                          bs::StoreOptions opts = {}) {
  auto store = std::make_unique<bs::BlobStore>(volume, std::move(sealer), opts);
  store->replay();
  return store;
}

std::uint32_t load_le32_at(const bu::Bytes& d, std::size_t off) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(d[off + i]) << (8 * i);
  return v;
}

std::uint64_t load_le64_at(const bu::Bytes& d, std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(d[off + i]) << (8 * i);
  return v;
}

/// Largest seq present in any raw frame header on the volume, including a
/// torn trailing header as long as its seq field (bytes 12..19) survives.
/// Reads the media directly — no CRC checks — because the question it
/// answers is "what could an attacker have snapshotted?".
std::uint64_t max_raw_seq(const bs::Volume& volume) {
  std::uint64_t max_seq = 0;
  for (const bs::Segment& seg : volume.segments()) {
    std::size_t off = 0;
    while (off + 20 <= seg.data.size()) {
      max_seq = std::max(max_seq, load_le64_at(seg.data, off + 12));
      if (off + 24 > seg.data.size()) break;  // torn header: no len field
      const std::uint32_t len = load_le32_at(seg.data, off + 8);
      if (len < 24) break;
      off += len;
    }
  }
  return max_seq;
}

}  // namespace

TEST(Store, Crc32cKnownAnswers) {
  // RFC 3720 appendix B.4 test vector: 32 zero bytes.
  bu::Bytes zeros(32, 0);
  EXPECT_EQ(bs::crc32c(zeros), 0x8a9136aau);
  // "123456789" — the classic check value for CRC-32C.
  const std::string digits = "123456789";
  bu::Bytes d(digits.begin(), digits.end());
  EXPECT_EQ(bs::crc32c(d), 0xe3069283u);
  // Incremental == one-shot.
  std::uint32_t state = bs::crc32c_init();
  state = bs::crc32c_update(state, d.data(), 4);
  state = bs::crc32c_update(state, d.data() + 4, d.size() - 4);
  EXPECT_EQ(bs::crc32c_final(state), 0xe3069283u);
}

TEST(Store, SealerMatchesReferenceAead) {
  // ChaPolySealer::seal_append must be byte-identical to crypto::chapoly_seal
  // — same ciphertext, same tag — for any (seq, aad, plaintext).
  const bcr::ChaChaKey key = test_key(7);
  bs::ChaPolySealer sealer(key);
  bu::Rng rng(3);
  for (const std::size_t n : {0ul, 1ul, 15ul, 16ul, 64ul, 1000ul}) {
    const bu::Bytes plain = rng.bytes(n);
    const bu::Bytes aad = rng.bytes(24);
    const std::uint64_t seq = rng.uniform(1, 1 << 30);
    bu::Bytes out;
    sealer.seal_append(out, seq, aad, plain);
    const bu::Bytes want =
        bcr::chapoly_seal(key, bcr::nonce_from_counter(seq), aad, plain);
    EXPECT_EQ(out, want) << "n=" << n;
    ASSERT_EQ(out.size(), plain.size() + sealer.overhead());
    // And the sealer opens its own output.
    const auto opened = sealer.open(seq, aad, out);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(*opened, plain);
  }
}

TEST(Store, PutGetRemoveRoundTrip) {
  bs::Volume volume;
  auto store = open_store(volume, bs::make_chapoly_sealer(test_key(1)));

  bu::Rng rng(5);
  const bu::Bytes a = rng.bytes(500);
  const bu::Bytes b = rng.bytes(5000);
  store->put("/a", a);
  store->put("/dir/b", b);
  EXPECT_EQ(store->live_files(), 2u);
  EXPECT_TRUE(store->contains("/a"));
  EXPECT_EQ(store->size_of("/dir/b"), b.size());
  EXPECT_EQ(store->list(), (std::vector<std::string>{"/a", "/dir/b"}));

  auto got = store->get("/a");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, a);

  // Overwrite supersedes; old record becomes garbage.
  const bu::Bytes a2 = rng.bytes(500);
  store->put("/a", a2);
  EXPECT_EQ(*store->get("/a"), a2);
  EXPECT_GT(store->garbage_bytes(), 0u);

  EXPECT_TRUE(store->remove("/a"));
  EXPECT_FALSE(store->remove("/a"));
  EXPECT_FALSE(store->contains("/a"));
  EXPECT_FALSE(store->get("/a").has_value());
  EXPECT_EQ(store->live_files(), 1u);
}

TEST(Store, ReplayIsDeterministicAndByteIdentical) {
  bs::Volume volume;
  const bcr::ChaChaKey key = test_key(9);
  // 4 KiB segments: the put/remove/overwrite history rolls the log across
  // many segments, and replay has to walk all of them in order.
  bs::StoreOptions opts;
  opts.segment_bytes = 4 * 1024;
  bcr::Digest before;
  std::size_t live_before = 0;
  {
    auto store = open_store(volume, bs::make_chapoly_sealer(key), opts);
    bu::Rng rng(8);
    for (int i = 0; i < 40; ++i) {
      store->put("/f" + std::to_string(i % 10), rng.bytes(rng.uniform(1, 3000)));
      if (i % 7 == 0) store->remove("/f" + std::to_string((i + 3) % 10));
    }
    before = store->snapshot_digest();
    live_before = store->live_files();
  }
  ASSERT_GE(volume.segments().size(), 4u);
  // Two more stores over the same volume, one after the other, each replay
  // to the same namespace with no torn tail.
  for (int reopen = 0; reopen < 2; ++reopen) {
    auto recovered = std::make_unique<bs::BlobStore>(
        volume, bs::make_chapoly_sealer(key), opts);
    const bs::ReplayReport report = recovered->replay();
    EXPECT_FALSE(report.torn) << "reopen " << reopen;
    EXPECT_GT(report.frames, 0u);
    EXPECT_EQ(report.live_files, live_before);
    EXPECT_EQ(recovered->live_files(), live_before);
    EXPECT_EQ(recovered->snapshot_digest(), before) << "reopen " << reopen;
  }
}

TEST(Store, TornTailTruncatesToLongestValidPrefix) {
  bs::Volume volume;
  bs::StoreOptions opts;
  opts.sync_every_append = false;  // expose an unsynced tail to the crash
  const bcr::ChaChaKey key = test_key(4);
  bu::Rng rng(12);
  bu::Bytes durable_a = rng.bytes(800);
  bu::Bytes durable_b = rng.bytes(800);
  {
    auto store = open_store(volume, bs::make_chapoly_sealer(key), opts);
    store->put("/durable/a", durable_a);
    store->put("/durable/b", durable_b);
    volume.sync();
    store->put("/lost/c", rng.bytes(800));
    store->put("/lost/d", rng.bytes(800));
  }
  // The crash keeps a torn prefix that ends mid-frame of the first unsynced
  // record: no complete record survives past the sync watermark.
  ASSERT_GT(volume.unsynced_bytes(), 40u);
  volume.crash(/*torn_keep_bytes=*/40);

  auto recovered = std::make_unique<bs::BlobStore>(
      volume, bs::make_chapoly_sealer(key), opts);
  const bs::ReplayReport report = recovered->replay();
  EXPECT_TRUE(report.torn);
  EXPECT_GT(report.truncated_bytes, 0u);
  EXPECT_EQ(report.live_files, 2u);
  EXPECT_EQ(*recovered->get("/durable/a"), durable_a);
  EXPECT_EQ(*recovered->get("/durable/b"), durable_b);
  EXPECT_FALSE(recovered->contains("/lost/c"));
  // Replay physically truncated the torn bytes: a third open is clean.
  auto clean = std::make_unique<bs::BlobStore>(
      volume, bs::make_chapoly_sealer(key), opts);
  EXPECT_FALSE(clean->replay().torn);
  EXPECT_EQ(clean->snapshot_digest(), recovered->snapshot_digest());
}

TEST(Store, CorruptedTailRecoversPrefix) {
  bs::Volume volume;
  const bcr::ChaChaKey key = test_key(2);
  bu::Rng rng(13);
  const bu::Bytes keep = rng.bytes(1200);
  {
    auto store = open_store(volume, bs::make_chapoly_sealer(key));
    store->put("/keep", keep);
    store->put("/flip", rng.bytes(1200));
  }
  // Flip a byte inside the last frame's body: its CRC fails, and replay
  // must drop that record (and everything after) rather than trust it.
  volume.corrupt_tail(/*byte_from_end=*/10);
  auto recovered = std::make_unique<bs::BlobStore>(
      volume, bs::make_chapoly_sealer(key), bs::StoreOptions{});
  const bs::ReplayReport report = recovered->replay();
  EXPECT_TRUE(report.torn);
  EXPECT_EQ(report.live_files, 1u);
  EXPECT_EQ(*recovered->get("/keep"), keep);
  EXPECT_FALSE(recovered->contains("/flip"));
}

TEST(Store, WrongKeyFailsClosed) {
  bs::Volume volume;
  {
    auto store = open_store(volume, bs::make_chapoly_sealer(test_key(1)));
    store->put("/secret", bu::to_bytes("sealed under key 1"));
  }
  // A different platform/measurement derives a different key: the frames
  // are CRC-valid, so this is NOT truncation — replay throws.
  auto wrong = std::make_unique<bs::BlobStore>(
      volume, bs::make_chapoly_sealer(test_key(200)), bs::StoreOptions{});
  EXPECT_THROW(wrong->replay(), bs::StoreError);
  // And a plaintext open of a sealed log is rejected before any body is
  // touched (the Meta frame's sealed flag disagrees).
  auto plain = std::make_unique<bs::BlobStore>(volume, bs::make_null_sealer(),
                                               bs::StoreOptions{});
  EXPECT_THROW(plain->replay(), bs::StoreError);
}

TEST(Store, ReplayRequiredBeforeFirstMutation) {
  bs::Volume volume;
  {
    auto store = open_store(volume, bs::make_null_sealer());
    store->put("/x", bu::to_bytes("x"));
  }
  bs::BlobStore unreplayed(volume, bs::make_null_sealer());
  EXPECT_THROW(unreplayed.put("/y", bu::to_bytes("y")), std::logic_error);
}

TEST(Store, CompactionReclaimsGarbageAndPreservesNamespace) {
  bs::Volume volume;
  bs::StoreOptions opts;
  opts.segment_bytes = 4096;  // force several sealed segments
  const bcr::ChaChaKey key = test_key(6);
  auto store = open_store(volume, bs::make_chapoly_sealer(key), opts);

  bu::Rng rng(21);
  for (int round = 0; round < 30; ++round) {
    // The same 5 paths, overwritten every round: most records are garbage.
    for (int f = 0; f < 5; ++f) {
      store->put("/f" + std::to_string(f), rng.bytes(700));
    }
  }
  ASSERT_GT(volume.segments().size(), 2u);
  ASSERT_TRUE(store->wants_compaction());

  const bcr::Digest before = store->snapshot_digest();
  const std::size_t log_before = store->log_bytes();
  store->compact();
  EXPECT_EQ(store->compactions(), 1u);
  EXPECT_LT(store->log_bytes(), log_before);
  EXPECT_EQ(store->snapshot_digest(), before);
  EXPECT_FALSE(store->wants_compaction());

  // The compacted log still replays to the same namespace (bodies were
  // copied verbatim, so the original seq-derived nonces still open).
  auto reopened = std::make_unique<bs::BlobStore>(
      volume, bs::make_chapoly_sealer(key), opts);
  EXPECT_FALSE(reopened->replay().torn);
  EXPECT_EQ(reopened->snapshot_digest(), before);

  // And the store keeps working after compaction.
  store->put("/f0", rng.bytes(700));
  EXPECT_EQ(store->live_files(), 5u);
}

TEST(Store, SeqNeverReusedAfterTornCrashRecovery) {
  // The nonce-reuse guard: records sealed into a tail the crash truncates
  // used (key, seq) pairs an attacker may have snapshotted. Recovery must
  // resume ABOVE every seq ever written — the durable ceiling in the Meta
  // frames — not merely above the surviving prefix's max.
  bs::Volume volume;
  bs::StoreOptions opts;
  opts.sync_every_append = false;
  const bcr::ChaChaKey key = test_key(11);
  bu::Rng rng(41);
  {
    auto store = open_store(volume, bs::make_chapoly_sealer(key), opts);
    store->put("/durable/a", rng.bytes(600));
    store->put("/durable/b", rng.bytes(600));
    volume.sync();
    store->put("/lost/1", rng.bytes(600));
    store->put("/lost/2", rng.bytes(600));
  }
  const std::uint64_t max_written = max_raw_seq(volume);
  ASSERT_GE(max_written, 4u);  // meta + four puts
  volume.crash(/*torn_keep_bytes=*/40);

  auto recovered = std::make_unique<bs::BlobStore>(
      volume, bs::make_chapoly_sealer(key), opts);
  ASSERT_TRUE(recovered->replay().torn);
  const std::size_t replayed_end = volume.segments().back().data.size();
  recovered->put("/fresh", rng.bytes(600));

  // Every frame appended after recovery (reservation Meta included) must
  // carry a seq strictly above anything the pre-crash log ever held.
  const bu::Bytes& active = volume.segments().back().data;
  std::size_t off = replayed_end;
  std::size_t post_frames = 0;
  while (off + 24 <= active.size()) {
    EXPECT_GT(load_le64_at(active, off + 12), max_written);
    const std::uint32_t len = load_le32_at(active, off + 8);
    ASSERT_GE(len, 24u);
    off += len;
    ++post_frames;
  }
  EXPECT_GE(post_frames, 2u);  // fresh reservation Meta, then the record
}

TEST(Store, RepeatedCompactionKeepsLogBounded) {
  // Regression: replace_prefix used to drop segments by id comparison, but
  // a merged segment's fresh id exceeds the active's, so a second compact()
  // (reachable before any new roll on delete-heavy logs) duplicated the
  // previous merged segment and the log grew monotonically.
  bs::Volume volume;
  bs::StoreOptions opts;
  opts.segment_bytes = 4096;
  const bcr::ChaChaKey key = test_key(17);
  auto store = open_store(volume, bs::make_chapoly_sealer(key), opts);

  bu::Rng rng(23);
  for (int round = 0; round < 30; ++round) {
    for (int f = 0; f < 5; ++f) {
      store->put("/f" + std::to_string(f), rng.bytes(700));
    }
  }
  ASSERT_TRUE(store->wants_compaction());
  store->compact();
  const bcr::Digest digest = store->snapshot_digest();
  const std::size_t log_after_first = store->log_bytes();
  ASSERT_EQ(volume.segments().size(), 2u);  // merged + active

  store->compact();
  EXPECT_EQ(volume.segments().size(), 2u);
  EXPECT_LE(store->log_bytes(), log_after_first);
  EXPECT_EQ(store->snapshot_digest(), digest);

  // Still replays clean to the same namespace.
  auto reopened = std::make_unique<bs::BlobStore>(
      volume, bs::make_chapoly_sealer(key), opts);
  EXPECT_FALSE(reopened->replay().torn);
  EXPECT_EQ(reopened->snapshot_digest(), digest);
}

TEST(Store, MidLogShearIsDetectedAndTruncated) {
  // A frame-aligned loss inside a non-active segment leaves every per-frame
  // CRC valid; only the successor head's chained predecessor-length can see
  // the hole. Replay must truncate everything from the hole onward instead
  // of silently recovering a non-prefix state.
  bs::Volume volume;
  bs::StoreOptions opts;
  opts.segment_bytes = 4096;
  const bcr::ChaChaKey key = test_key(14);
  bu::Rng rng(51);
  {
    auto store = open_store(volume, bs::make_chapoly_sealer(key), opts);
    for (int i = 0; i < 12; ++i) {
      store->put("/f" + std::to_string(i), rng.bytes(700));
    }
  }
  ASSERT_GE(volume.segments().size(), 3u);

  // Shear segment 0 at its final frame boundary (drop exactly one frame).
  const bu::Bytes& seg0 = volume.segments()[0].data;
  std::size_t last_start = 0;
  for (std::size_t off = 0; off + 24 <= seg0.size();) {
    const std::uint32_t len = load_le32_at(seg0, off + 8);
    if (len < 24 || off + len > seg0.size()) break;
    last_start = off;
    off += len;
  }
  ASSERT_GT(last_start, 0u);
  volume.shear_segment(0, last_start);

  auto recovered = std::make_unique<bs::BlobStore>(
      volume, bs::make_chapoly_sealer(key), opts);
  const bs::ReplayReport report = recovered->replay();
  EXPECT_TRUE(report.torn);
  EXPECT_GT(report.truncated_bytes, 0u);

  // Exactly the put frames still physically in segment 0 survive; nothing
  // past the hole does (paths are unique, so puts == live files).
  std::size_t surviving_puts = 0;
  const bu::Bytes& sheared = volume.segments()[0].data;
  for (std::size_t off = 0; off + 24 <= sheared.size();) {
    if (sheared[off + 20] == 1) ++surviving_puts;
    off += load_le32_at(sheared, off + 8);
  }
  ASSERT_GT(surviving_puts, 0u);
  ASSERT_LT(surviving_puts, 12u);
  EXPECT_EQ(report.live_files, surviving_puts);
  EXPECT_TRUE(recovered->contains("/f0"));
  EXPECT_FALSE(recovered->contains("/f11"));

  // The truncation is physical: a clean reopen agrees byte for byte.
  auto clean = std::make_unique<bs::BlobStore>(
      volume, bs::make_chapoly_sealer(key), opts);
  EXPECT_FALSE(clean->replay().torn);
  EXPECT_EQ(clean->snapshot_digest(), recovered->snapshot_digest());
}

TEST(Store, SegmentRollSyncsPriorSegments) {
  // create_segment is fsync-before-close: after a roll, only the active
  // segment can hold unsynced bytes, so a crash cannot open a hole behind
  // the active segment.
  bs::Volume volume;
  volume.create_segment(256);
  bu::Rng rng(3);
  volume.append(rng.bytes(100));  // never explicitly synced
  EXPECT_EQ(volume.unsynced_bytes(), 100u);
  volume.create_segment(256);
  EXPECT_EQ(volume.unsynced_bytes(), 0u);
  volume.append(rng.bytes(50));
  volume.crash(/*torn_keep_bytes=*/0);
  ASSERT_EQ(volume.segments().size(), 2u);
  EXPECT_EQ(volume.segments()[0].data.size(), 100u);  // survived the roll
  EXPECT_EQ(volume.segments()[1].data.size(), 0u);    // unsynced tail gone
}

TEST(Store, VolumeManagerCrashIsDeterministic) {
  // Two managers with the same seed and the same write pattern make the
  // same torn-prefix draws — the bit-reproducibility chaos runs rely on.
  auto run = [](std::uint64_t seed) {
    bs::VolumeManager mgr(seed);
    bs::Volume& v = mgr.open("f");
    v.create_segment(1 << 16);
    bu::Rng rng(2);
    v.append(rng.bytes(400));
    v.sync();
    v.append(rng.bytes(300));
    mgr.crash();
    return v.total_bytes();
  };
  EXPECT_EQ(run(77), run(77));
  // Synced bytes always survive.
  EXPECT_GE(run(77), 400u);
}
