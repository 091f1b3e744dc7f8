#include "store/store.hpp"

#include <algorithm>
#include <cstring>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "store/crc32.hpp"
#include "util/annotations.hpp"

namespace bento::store {

namespace {

constexpr std::size_t kHeaderLen = 24;
constexpr std::uint8_t kMagic[4] = {'B', 'S', 'F', '1'};
constexpr std::uint8_t kFormatVersion = 1;
// Meta body: version byte, flag byte, seq ceiling (LE64), predecessor
// segment length at roll time (LE64, valid iff kMetaChained).
constexpr std::size_t kMetaBodyLen = 18;
constexpr std::uint8_t kMetaSealed = 0x01;     // log written with a sealing key
constexpr std::uint8_t kMetaCompacted = 0x02;  // head of a merged segment
constexpr std::uint8_t kMetaChained = 0x04;    // prev-end field is meaningful
// Sequence numbers reserved (durably, via a synced Meta frame) ahead of use.
// Recovery resumes above the last reserved ceiling, so a seq sealed into a
// crash-truncated tail is never reissued — the nonce-reuse guard. Large
// enough that steady-state appends almost never pay the extra synced Meta
// frame.
constexpr std::uint64_t kSeqReserve = 1 << 16;
// Compact when garbage / sealed-segment bytes exceeds this.
constexpr double kCompactGarbageRatio = 0.5;

void store_le32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
void store_le64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
std::uint32_t load_le32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}
std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// The one primitive that commits frame bytes to durable media. bentolint
/// BL109 requires every caller to be BENTO_FRAMED and to pair the call
/// with a crc32 update in the same function.
void write_frame(Volume& volume, util::ByteView frame, bool sync) {
  volume.append(frame);
  if (sync) volume.sync();
}

/// Appends a complete (CRC-stamped) Meta frame to `out`. Used by
/// append_meta (via the scratch buffer) and by compaction, which assembles
/// a replacement segment off to the side and installs it with
/// Volume::replace_prefix rather than write_frame.
BENTO_FRAMED void build_meta_frame(util::Bytes& out, std::uint64_t seq,
                                   std::uint8_t flags, std::uint64_t ceiling,
                                   std::uint64_t prev_end) {
  const std::size_t base = out.size();
  out.resize(base + kHeaderLen + kMetaBodyLen);
  std::uint8_t* p = out.data() + base;
  std::memcpy(p, kMagic, 4);
  store_le32(p + 4, 0);
  store_le32(p + 8, static_cast<std::uint32_t>(kHeaderLen + kMetaBodyLen));
  store_le64(p + 12, seq);
  p[20] = 0;  // Op::Meta
  p[21] = 0;  // path length
  p[22] = 0;
  p[23] = 0;
  p[24] = kFormatVersion;
  p[25] = flags;
  store_le64(p + 26, ceiling);
  store_le64(p + 34, prev_end);
  const std::uint32_t crc = crc32c_final(
      crc32c_update(crc32c_init(), p + 8, kHeaderLen + kMetaBodyLen - 8));
  store_le32(p + 4, crc);
}

struct StoreCounters {
  obs::Counter append_frames = obs::registry().counter("store.append.frames");
  obs::Counter append_bytes = obs::registry().counter("store.append.bytes");
  obs::Counter replay_frames = obs::registry().counter("store.replay.frames");
  obs::Counter replay_truncated = obs::registry().counter("store.replay.truncated_bytes");
  obs::Counter compact_runs = obs::registry().counter("store.compact.runs");
  obs::Counter compact_reclaimed = obs::registry().counter("store.compact.reclaimed_bytes");
};

StoreCounters& counters() {
  static StoreCounters c;
  return c;
}

}  // namespace

BlobStore::BlobStore(Volume& volume, std::unique_ptr<Sealer> sealer,
                     StoreOptions opts)
    : volume_(volume), sealer_(std::move(sealer)), opts_(opts) {
  frame_scratch_.reserve(1024);
}

BlobStore::~BlobStore() = default;

void BlobStore::roll_segment(std::size_t upcoming_frame) {
  const std::size_t meta_frame = kHeaderLen + kMetaBodyLen;
  Segment* active = volume_.active();
  const bool need_fresh =
      active == nullptr ||
      (active->data.size() + upcoming_frame > opts_.segment_bytes &&
       active->data.size() > meta_frame);
  if (need_fresh) {
    volume_.create_segment(std::max(opts_.segment_bytes,
                                    upcoming_frame + meta_frame));
  }
}

// Writes one Meta frame at the current append position and refreshes the
// durable seq reservation. Always synced: the ceiling is only a nonce-reuse
// guard if it is on disk before any seq in its range is, and because the
// synced region is always a log prefix, any record that survives a crash
// has its covering ceiling survive with it. At a segment head the frame is
// chained to its predecessor's length so replay can detect mid-log holes.
BENTO_FRAMED void BlobStore::append_meta() {
  const std::vector<Segment>& segs = volume_.segments();
  const bool head = segs.back().data.empty();
  std::uint8_t flags = sealer_->sealing() ? kMetaSealed : 0;
  std::uint64_t prev_end = 0;
  if (head && segs.size() >= 2) {
    flags |= kMetaChained;
    prev_end = segs[segs.size() - 2].data.size();
  }
  const std::uint64_t seq = next_seq_++;
  seq_ceiling_ = seq + kSeqReserve;
  frame_scratch_.clear();
  build_meta_frame(frame_scratch_, seq, flags, seq_ceiling_, prev_end);
  // bentolint: allow(BL109 frame built and CRC-stamped by build_meta_frame)
  write_frame(volume_, frame_scratch_, /*sync=*/true);
}

// The single append path: build the frame in the reusable scratch, CRC it,
// commit with write_frame. Steady state (existing path, warmed scratch
// capacity) performs zero heap allocations.
BENTO_FRAMED BENTO_HOT void BlobStore::append_record(Op op,
                                                     const std::string& path,
                                                     util::ByteView payload,
                                                     Entry* reuse) {
  const std::size_t sealed_len =
      payload.size() + (op == Op::Put ? sealer_->overhead() : 0);
  const std::size_t frame_len = kHeaderLen + path.size() + sealed_len;
  roll_segment(frame_len);
  // Every segment starts with a Meta record (fresh segments, and a tail
  // truncated to empty by torn-write recovery); one is also forced whenever
  // the durable seq reservation runs out, so no record's seq ever exceeds a
  // ceiling that is already on disk.
  if (volume_.active()->data.empty() || next_seq_ > seq_ceiling_) {
    append_meta();
  }

  // Reserve the full frame up front: seal_append's AAD view aliases the
  // scratch header, which must therefore never reallocate mid-build.
  frame_scratch_.clear();
  frame_scratch_.reserve(frame_len);  // bentolint: allow(BL102 capacity reused across appends)
  frame_scratch_.resize(kHeaderLen);  // bentolint: allow(BL102 within reserved capacity)
  const std::uint64_t seq = next_seq_++;
  std::uint8_t* hdr = frame_scratch_.data();
  std::memcpy(hdr, kMagic, 4);
  store_le32(hdr + 4, 0);
  store_le32(hdr + 8, static_cast<std::uint32_t>(frame_len));
  store_le64(hdr + 12, seq);
  hdr[20] = static_cast<std::uint8_t>(op);
  hdr[21] = static_cast<std::uint8_t>(path.size() & 0xff);
  hdr[22] = static_cast<std::uint8_t>((path.size() >> 8) & 0xff);
  hdr[23] = 0;
  // bentolint: allow(BL102 within reserved capacity)
  frame_scratch_.insert(frame_scratch_.end(), path.begin(), path.end());

  if (op == Op::Put) {
    const util::ByteView aad(frame_scratch_.data() + 20, 4 + path.size());
    sealer_->seal_append(frame_scratch_, seq, aad, payload);
  } else {
    // bentolint: allow(BL102 within reserved capacity)
    frame_scratch_.insert(frame_scratch_.end(), payload.begin(),
                          payload.end());
  }

  const std::uint32_t crc = crc32c_final(crc32c_update(
      crc32c_init(), frame_scratch_.data() + 8, frame_scratch_.size() - 8));
  store_le32(frame_scratch_.data() + 4, crc);
  const Segment& seg = *volume_.active();
  const std::size_t offset = seg.data.size();
  write_frame(volume_, frame_scratch_, opts_.sync_every_append);

  counters().append_frames.inc();
  counters().append_bytes.inc(frame_len);
  if (reuse != nullptr) {
    reuse->seq = seq;
    reuse->segment_id = seg.id;
    reuse->offset = offset;
    reuse->frame_len = frame_len;
    reuse->plain_size = payload.size();
  }
}

void BlobStore::retire(const Entry& e) {
  garbage_bytes_ += e.frame_len;
}

void BlobStore::put(const std::string& path, util::ByteView data) {
  if (!replayed_) {
    if (volume_.total_bytes() != 0) {
      throw std::logic_error("store: replay() required before first mutation");
    }
    replayed_ = true;
  }
  if (path.empty() || path.size() > 0xffff) {
    throw std::invalid_argument("store: bad path length");
  }
  obs::SpanScope span(obs::Stage::StoreAppend);
  auto [it, inserted] = index_.try_emplace(path);
  Entry& e = it->second;
  if (!inserted) retire(e);
  append_record(Op::Put, path, data, &e);
}

bool BlobStore::remove(const std::string& path) {
  auto it = index_.find(path);
  if (it == index_.end()) return false;
  obs::SpanScope span(obs::Stage::StoreAppend);
  retire(it->second);
  append_record(Op::Remove, path, {}, nullptr);
  // The tombstone itself is garbage the moment the record it masks is gone;
  // count it eagerly so the compaction heuristic sees delete-heavy logs.
  garbage_bytes_ += kHeaderLen + path.size();
  index_.erase(it);
  return true;
}

std::optional<util::Bytes> BlobStore::get(const std::string& path) const {
  auto it = index_.find(path);
  if (it == index_.end()) return std::nullopt;
  return read_and_unseal(it->first, it->second);
}

bool BlobStore::contains(const std::string& path) const {
  return index_.count(path) > 0;
}

std::optional<std::size_t> BlobStore::size_of(const std::string& path) const {
  auto it = index_.find(path);
  if (it == index_.end()) return std::nullopt;
  return it->second.plain_size;
}

std::vector<std::string> BlobStore::list() const {
  std::vector<std::string> out;
  out.reserve(index_.size());
  for (const auto& [path, e] : index_) out.push_back(path);
  return out;
}

util::Bytes BlobStore::read_and_unseal(const std::string& path,
                                       const Entry& e) const {
  const Segment* seg = nullptr;
  for (const Segment& s : volume_.segments()) {
    if (s.id == e.segment_id) {
      seg = &s;
      break;
    }
  }
  if (seg == nullptr || e.offset + e.frame_len > seg->data.size()) {
    throw StoreError("store: index points past the log (internal)");
  }
  const std::uint8_t* frame = seg->data.data() + e.offset;
  const std::size_t path_len = path.size();
  const util::ByteView aad(frame + 20, 4 + path_len);
  const util::ByteView body(frame + kHeaderLen + path_len,
                            e.frame_len - kHeaderLen - path_len);
  std::optional<util::Bytes> plain = sealer_->open(e.seq, aad, body);
  if (!plain.has_value()) {
    throw StoreError("store: record failed to unseal (sealing key mismatch)");
  }
  return std::move(*plain);
}

ReplayReport BlobStore::replay() {
  if (replayed_) throw std::logic_error("store: replay() called twice");
  replayed_ = true;
  obs::SpanScope span(obs::SpanScope::kRoot, obs::Stage::StoreReplay);

  ReplayReport report;
  std::uint64_t max_seq = 0;
  std::uint64_t max_ceiling = 0;
  bool meta_seen = false;
  bool truncated = false;
  bool prev_compacted = false;  // predecessor segment is a merged segment
  std::size_t valid_total = 0;  // bytes of valid prefix across segments

  std::string path;  // reused across records
  const std::vector<Segment>& segs = volume_.segments();
  for (std::size_t si = 0; si < segs.size(); ++si) {
    const Segment& seg = segs[si];
    bool this_compacted = false;
    std::size_t off = 0;
    while (off < seg.data.size()) {
      const std::size_t remaining = seg.data.size() - off;
      if (remaining < kHeaderLen) {
        truncated = true;
        break;
      }
      const std::uint8_t* p = seg.data.data() + off;
      if (std::memcmp(p, kMagic, 4) != 0) {
        truncated = true;
        break;
      }
      const std::uint32_t len = load_le32(p + 8);
      if (len < kHeaderLen || len > remaining) {
        truncated = true;
        break;
      }
      const std::uint32_t want = load_le32(p + 4);
      const std::uint32_t got =
          crc32c_final(crc32c_update(crc32c_init(), p + 8, len - 8));
      if (want != got) {
        truncated = true;
        break;
      }
      const std::uint64_t seq = load_le64(p + 12);
      const std::uint8_t op = p[20];
      const std::size_t path_len =
          static_cast<std::size_t>(p[21]) | (static_cast<std::size_t>(p[22]) << 8);
      if (kHeaderLen + path_len > len || op > 2) {
        truncated = true;  // CRC-valid but self-inconsistent: treat as torn
        break;
      }
      max_seq = std::max(max_seq, seq);
      path.assign(reinterpret_cast<const char*>(p) + kHeaderLen, path_len);
      const util::ByteView body(p + kHeaderLen + path_len,
                                len - kHeaderLen - path_len);

      switch (static_cast<Op>(op)) {
        case Op::Meta: {
          if (body.size() < kMetaBodyLen || body[0] != kFormatVersion) {
            throw StoreError("store: unsupported log format version");
          }
          const std::uint8_t flags = body[1];
          const bool log_sealed = (flags & kMetaSealed) != 0;
          if (log_sealed != sealer_->sealing()) {
            throw StoreError(
                "store: log sealing mode does not match the provided sealer");
          }
          max_ceiling = std::max(max_ceiling, load_le64(body.data() + 2));
          if (off == 0) {
            this_compacted = (flags & kMetaCompacted) != 0;
            // Cross-segment continuity: this head recorded the predecessor's
            // length at roll time. A mismatch means the predecessor lost a
            // frame-aligned tail (a mid-log hole the per-frame CRC cannot
            // see), so everything from this segment on is past the hole and
            // must go. A compacted predecessor legitimately changed length
            // (and is fully synced, so it cannot have shrunk in a crash).
            if ((flags & kMetaChained) != 0 && si > 0 && !prev_compacted &&
                load_le64(body.data() + 10) != segs[si - 1].data.size()) {
              truncated = true;
            }
          }
          meta_seen = true;
          break;
        }
        case Op::Put: {
          if (!meta_seen) {
            throw StoreError("store: record before any Meta frame");
          }
          const util::ByteView aad(p + 20, 4 + path_len);
          std::optional<util::Bytes> plain = sealer_->open(seq, aad, body);
          if (!plain.has_value()) {
            // Fail closed: a CRC-valid record that does not authenticate
            // means the sealing key is wrong (no attestation), not a torn
            // write. Recovery must not proceed.
            throw StoreError(
                "store: replay unseal failed — sealing key mismatch");
          }
          auto [it, inserted] = index_.try_emplace(path);
          Entry& e = it->second;
          if (!inserted) retire(e);
          e.seq = seq;
          e.segment_id = seg.id;
          e.offset = off;
          e.frame_len = len;
          e.plain_size = plain->size();
          break;
        }
        case Op::Remove: {
          auto it = index_.find(path);
          if (it != index_.end()) {
            retire(it->second);
            index_.erase(it);
          }
          garbage_bytes_ += len;
          break;
        }
      }
      if (truncated) break;  // continuity rejection: frame is past the hole
      ++report.frames;
      counters().replay_frames.inc();
      off += len;
    }
    valid_total += std::min(off, seg.data.size());
    if (truncated) break;
    prev_compacted = this_compacted;
  }

  // Resume strictly above every seq that could have been written — the max
  // actually seen, and the max durably reserved ceiling. A seq handed out
  // before the crash (even one sealed into the truncated tail an attacker
  // may have snapshotted) is never reissued, so a (key, nonce) pair is used
  // at most once across restarts. seq_ceiling_ stays 0: the first
  // post-recovery append writes a fresh synced reservation before any new
  // seq reaches the log.
  next_seq_ = std::max(max_seq, max_ceiling) + 1;
  report.bytes = valid_total;
  report.torn = truncated;
  if (truncated) {
    const std::size_t tail = volume_.total_bytes() - valid_total;
    report.truncated_bytes = tail;
    volume_.truncate_tail(tail);
    counters().replay_truncated.inc(tail);
  }
  report.live_files = index_.size();
  return report;
}

std::size_t BlobStore::sealed_segment_bytes() const {
  const std::vector<Segment>& segs = volume_.segments();
  std::size_t n = 0;
  for (std::size_t i = 0; i + 1 < segs.size(); ++i) n += segs[i].data.size();
  return n;
}

bool BlobStore::wants_compaction() const {
  const std::size_t sealed = sealed_segment_bytes();
  if (sealed == 0) return false;
  // garbage_bytes_ counts dead frames anywhere; comparing against the
  // sealed prefix only makes the heuristic trigger-happy, never starved.
  const double ratio =
      static_cast<double>(std::min(garbage_bytes_, sealed)) /
      static_cast<double>(sealed);
  return ratio > kCompactGarbageRatio;
}

void BlobStore::compact() {
  const std::vector<Segment>& segs = volume_.segments();
  if (segs.size() < 2) return;
  obs::SpanScope span(obs::SpanScope::kRoot, obs::Stage::StoreCompact);
  const std::uint64_t active_id = segs.back().id;

  // Live records in the sealed prefix, identified by (segment, offset).
  struct Patch {
    Entry* entry;
    std::size_t new_offset;
  };
  std::vector<Patch> patches;
  util::Bytes compacted;
  // The merged head consumes a seq like any record; make sure it falls
  // under a durable ceiling first (e.g. right after recovery, when no
  // reservation has been written yet).
  if (next_seq_ > seq_ceiling_) append_meta();
  const std::uint8_t flags =
      static_cast<std::uint8_t>((sealer_->sealing() ? kMetaSealed : 0) |
                                kMetaCompacted);
  build_meta_frame(compacted, next_seq_++, flags, seq_ceiling_,
                   /*prev_end=*/0);

  std::size_t before = 0;
  for (const Segment& seg : segs) {
    if (seg.id == active_id) break;
    before += seg.data.size();
  }
  std::string path;  // reused
  for (const Segment& seg : segs) {
    if (seg.id == active_id) break;
    std::size_t off = 0;
    while (off + kHeaderLen <= seg.data.size()) {
      const std::uint8_t* p = seg.data.data() + off;
      const std::uint32_t len = load_le32(p + 8);
      const std::size_t path_len =
          static_cast<std::size_t>(p[21]) | (static_cast<std::size_t>(p[22]) << 8);
      if (static_cast<Op>(p[20]) == Op::Put) {
        path.assign(reinterpret_cast<const char*>(p) + kHeaderLen, path_len);
        auto it = index_.find(path);
        if (it != index_.end() && it->second.segment_id == seg.id &&
            it->second.offset == off) {
          // Live: copy the frame verbatim — the body keeps its original
          // (seq, nonce), so sealing nonces are never reused.
          patches.push_back(Patch{&it->second, compacted.size()});
          compacted.insert(compacted.end(), p, p + len);
        }
      }
      off += len;
    }
  }

  const std::uint64_t new_id = volume_.replace_prefix(active_id, std::move(compacted));
  // Post-condition for the positional replacement: exactly [merged, active]
  // remains. An id-based replacement would leave a prior merged segment
  // behind (its fresh id exceeds the active's), growing the log forever.
  if (volume_.segments().size() != 2 ||
      volume_.segments().front().id != new_id ||
      volume_.segments().back().id != active_id) {
    throw std::logic_error("store: compaction did not replace exactly the sealed prefix");
  }
  for (const Patch& patch : patches) {
    patch.entry->segment_id = new_id;
    patch.entry->offset = patch.new_offset;
  }
  const std::size_t after = volume_.segments().front().data.size();
  const std::size_t reclaimed = before > after ? before - after : 0;
  garbage_bytes_ = garbage_bytes_ > reclaimed ? garbage_bytes_ - reclaimed : 0;
  ++compactions_;
  counters().compact_runs.inc();
  counters().compact_reclaimed.inc(reclaimed);
}

crypto::Digest BlobStore::snapshot_digest() const {
  crypto::Sha256 h;
  std::uint8_t lenbuf[8];
  for (const auto& [path, entry] : index_) {
    store_le64(lenbuf, path.size());
    h.update(util::ByteView(lenbuf, 8));
    h.update(util::ByteView(reinterpret_cast<const std::uint8_t*>(path.data()),
                            path.size()));
    const util::Bytes contents = read_and_unseal(path, entry);
    store_le64(lenbuf, contents.size());
    h.update(util::ByteView(lenbuf, 8));
    h.update(contents);
  }
  return h.finish();
}

}  // namespace bento::store
