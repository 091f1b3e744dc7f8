#include "sandbox/vfs.hpp"

#include <sstream>
#include <stdexcept>

namespace bento::sandbox {

std::optional<std::size_t> VfsBackend::size_of(const std::string& path) const {
  const std::optional<util::Bytes> data = read(path);
  if (!data.has_value()) return std::nullopt;
  return data->size();
}

namespace {
util::ByteView path_bytes(const std::string& path) {
  return {reinterpret_cast<const std::uint8_t*>(path.data()), path.size()};
}
}  // namespace

MemoryBackend::MemoryBackend(std::unique_ptr<store::Sealer> sealer)
    : sealer_(std::move(sealer)) {}

void MemoryBackend::write(const std::string& path, util::ByteView data) {
  Entry entry{++seq_, {}};
  entry.body.reserve(data.size() + sealer_->overhead());
  sealer_->seal_append(entry.body, entry.seq, path_bytes(path), data);
  files_.insert_or_assign(path, std::move(entry));
}

std::optional<util::Bytes> MemoryBackend::read(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) return std::nullopt;
  std::optional<util::Bytes> plain =
      sealer_->open(it->second.seq, path_bytes(path), it->second.body);
  if (!plain.has_value()) {
    throw store::StoreError("vfs: " + path + " failed authentication");
  }
  return plain;
}

bool MemoryBackend::remove(const std::string& path) { return files_.erase(path) > 0; }

std::vector<std::string> MemoryBackend::list() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [k, v] : files_) out.push_back(k);
  return out;
}

util::Bytes* MemoryBackend::stored(const std::string& path) {
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : &it->second.body;
}

void StoreBackend::write(const std::string& path, util::ByteView data) {
  blob_->put(path, data);
  if (on_mutate_) on_mutate_();
}

std::optional<util::Bytes> StoreBackend::read(const std::string& path) const {
  return blob_->get(path);
}

bool StoreBackend::remove(const std::string& path) {
  const bool existed = blob_->remove(path);
  if (existed && on_mutate_) on_mutate_();
  return existed;
}

std::vector<std::string> StoreBackend::list() const { return blob_->list(); }

std::optional<std::size_t> StoreBackend::size_of(const std::string& path) const {
  return blob_->size_of(path);
}

std::string chroot_normalize(const std::string& path) {
  std::vector<std::string> parts;
  std::istringstream in(path);
  std::string part;
  while (std::getline(in, part, '/')) {
    if (part.empty() || part == ".") continue;
    if (part == "..") {
      if (!parts.empty()) parts.pop_back();
      continue;  // ".." at the root stays at the root: no escape
    }
    parts.push_back(part);
  }
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += '/';
    out += parts[i];
  }
  return out;
}

Vfs::Vfs(std::unique_ptr<VfsBackend> backend, ResourceAccountant& resources)
    : backend_(std::move(backend)), resources_(resources) {}

void Vfs::write(const std::string& path, util::ByteView data) {
  const std::string key = chroot_normalize(path);
  // Reject what no backend can store ("/" normalizes to the empty key;
  // BlobStore frames cap paths at 16 bits) *before* charging, so every
  // backend shows the guest identical behavior and the accountant never
  // holds bytes the store refused.
  if (key.empty() || key.size() > 0xffff) {
    throw std::invalid_argument("vfs: unwritable path: " + path);
  }
  const auto old = sizes_.find(key);
  const std::int64_t delta =
      static_cast<std::int64_t>(data.size()) -
      (old == sizes_.end() ? 0 : static_cast<std::int64_t>(old->second));
  resources_.charge_disk(delta);  // throws before touching the backend
  try {
    backend_->write(key, data);
  } catch (...) {
    resources_.charge_disk(-delta);  // a failed write stores nothing
    throw;
  }
  sizes_[key] = data.size();
}

std::optional<util::Bytes> Vfs::read(const std::string& path) const {
  return backend_->read(chroot_normalize(path));
}

bool Vfs::remove(const std::string& path) {
  const std::string key = chroot_normalize(path);
  auto it = sizes_.find(key);
  if (it == sizes_.end()) return false;
  resources_.charge_disk(-static_cast<std::int64_t>(it->second));
  sizes_.erase(it);
  return backend_->remove(key);
}

bool Vfs::exists(const std::string& path) const {
  return sizes_.contains(chroot_normalize(path));
}

std::vector<std::string> Vfs::list() const { return backend_->list(); }

void Vfs::restore_accounting() {
  for (const std::string& key : backend_->list()) {
    const std::optional<std::size_t> size = backend_->size_of(key);
    if (!size.has_value()) continue;
    const auto old = sizes_.find(key);
    const std::int64_t delta =
        static_cast<std::int64_t>(*size) -
        (old == sizes_.end() ? 0 : static_cast<std::int64_t>(old->second));
    resources_.charge_disk(delta);
    sizes_[key] = *size;
  }
}

}  // namespace bento::sandbox
