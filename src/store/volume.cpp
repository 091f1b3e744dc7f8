#include "store/volume.hpp"

#include <stdexcept>

#include "util/annotations.hpp"

namespace bento::store {

Segment& Volume::create_segment(std::size_t reserve_bytes) {
  // Roll == fsync + close of the previous segment file: everything written
  // so far becomes durable, so only the new active segment can ever hold
  // unsynced bytes. Without this a crash could drop a non-active segment's
  // unsynced tail while later (torn-prefix) bytes survive — a silent
  // mid-log hole that replay's prefix contract forbids.
  sync();
  Segment seg;
  seg.id = next_id_++;
  seg.data.reserve(reserve_bytes);
  segments_.push_back(std::move(seg));
  return segments_.back();
}

BENTO_HOT std::size_t Volume::append(util::ByteView bytes) {
  if (segments_.empty()) throw std::logic_error("volume: append with no segment");
  Segment& seg = segments_.back();
  const std::size_t at = seg.data.size();
  // Steady state stays within the reserved capacity (store.cpp rolls to a
  // fresh segment before the reserve is exhausted), so this does not grow.
  // bentolint: allow(BL102 amortized by segment reserve)
  seg.data.insert(seg.data.end(), bytes.begin(), bytes.end());
  return at;
}

void Volume::sync() {
  for (Segment& seg : segments_) seg.synced = seg.data.size();
}

void Volume::crash(std::size_t torn_keep_bytes) {
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    Segment& seg = segments_[i];
    std::size_t keep = seg.synced;
    if (i + 1 == segments_.size()) {
      const std::size_t unsynced = seg.data.size() - seg.synced;
      keep += (torn_keep_bytes < unsynced) ? torn_keep_bytes : unsynced;
    }
    seg.data.resize(keep);
    seg.synced = seg.data.size() < seg.synced ? seg.data.size() : seg.synced;
  }
}

std::uint64_t Volume::replace_prefix(std::uint64_t keep_from_id, util::Bytes compacted) {
  std::vector<Segment> next;
  next.reserve(segments_.size() + 1);
  Segment merged;
  merged.id = next_id_++;
  merged.data = std::move(compacted);
  merged.synced = merged.data.size();
  const std::uint64_t id = merged.id;
  next.push_back(std::move(merged));
  // Positional, not id-ordered: everything before the kept segment is the
  // compacted prefix, regardless of the ids compaction history assigned.
  bool keeping = false;
  for (Segment& seg : segments_) {
    if (seg.id == keep_from_id) keeping = true;
    if (keeping) next.push_back(std::move(seg));
  }
  segments_ = std::move(next);
  return id;
}

std::size_t Volume::total_bytes() const {
  std::size_t n = 0;
  for (const Segment& seg : segments_) n += seg.data.size();
  return n;
}

std::size_t Volume::unsynced_bytes() const {
  std::size_t n = 0;
  for (const Segment& seg : segments_) n += seg.data.size() - seg.synced;
  return n;
}

void Volume::truncate_tail(std::size_t bytes) {
  for (auto it = segments_.rbegin(); it != segments_.rend() && bytes > 0; ++it) {
    const std::size_t drop = bytes < it->data.size() ? bytes : it->data.size();
    it->data.resize(it->data.size() - drop);
    if (it->synced > it->data.size()) it->synced = it->data.size();
    bytes -= drop;
  }
}

void Volume::shear_segment(std::size_t index, std::size_t keep_bytes) {
  if (index >= segments_.size()) {
    throw std::out_of_range("volume: shear_segment index past end");
  }
  Segment& seg = segments_[index];
  if (keep_bytes > seg.data.size()) {
    throw std::out_of_range("volume: shear_segment cannot grow a segment");
  }
  seg.data.resize(keep_bytes);
  if (seg.synced > seg.data.size()) seg.synced = seg.data.size();
}

void Volume::corrupt_tail(std::size_t byte_from_end) {
  for (auto it = segments_.rbegin(); it != segments_.rend(); ++it) {
    if (byte_from_end < it->data.size()) {
      it->data[it->data.size() - 1 - byte_from_end] ^= 0xa5;
      return;
    }
    byte_from_end -= it->data.size();
  }
  throw std::out_of_range("volume: corrupt_tail past start of log");
}

VolumeManager::VolumeManager(std::uint64_t seed) : rng_(seed) {}

Volume& VolumeManager::open(const std::string& key) {
  auto it = volumes_.find(key);
  if (it == volumes_.end()) {
    it = volumes_.emplace(key, std::make_unique<Volume>()).first;
  }
  return *it->second;
}

Volume* VolumeManager::find(const std::string& key) {
  auto it = volumes_.find(key);
  return it == volumes_.end() ? nullptr : it->second.get();
}

std::vector<std::string> VolumeManager::keys() const {
  std::vector<std::string> out;
  out.reserve(volumes_.size());
  for (const auto& [key, vol] : volumes_) out.push_back(key);
  return out;
}

void VolumeManager::crash() {
  // std::map iteration keeps the draw order stable, so the torn prefix each
  // volume keeps is a pure function of (seed, crash count, volume names).
  for (auto& [key, vol] : volumes_) {
    Segment* active = vol->active();
    const std::size_t unsynced =
        active ? active->data.size() - active->synced : 0;
    const std::size_t torn =
        unsynced == 0 ? 0 : static_cast<std::size_t>(rng_.uniform(0, unsynced));
    vol->crash(torn);
  }
}

}  // namespace bento::store
