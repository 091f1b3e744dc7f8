#include "sandbox/vfs.hpp"

#include <sstream>
#include <stdexcept>

namespace bento::sandbox {

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

std::optional<std::size_t> MemoryBackend::size_of(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) return std::nullopt;
  const std::size_t stored = it->second.body.size();
  const std::size_t tag = sealer_->overhead();
  return stored > tag ? stored - tag : 0;
}

util::Bytes* MemoryBackend::stored(const std::string& path) {
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : &it->second.body;
}

void StoreBackend::write(const std::string& path, util::ByteView data) { blob_->put(path, data); }

std::optional<util::Bytes> StoreBackend::read(const std::string& path) const {
  return blob_->get(path);
}

bool StoreBackend::remove(const std::string& path) { return blob_->remove(path); }

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
    : backend_(std::move(backend)), resources_(resources) {
  for (const std::string& key : backend_->list()) {
    resources_.charge_disk(static_cast<std::int64_t>(backend_->size_of(key).value_or(0)));
  }
}

void Vfs::write(const std::string& path, util::ByteView data) {
  const std::string key = chroot_normalize(path);
  // Reject what no backend can store ("/" normalizes to the empty key;
  // BlobStore frames cap paths at 16 bits) *before* charging, so every
  // backend shows the guest identical behavior and the accountant never
  // holds bytes the store refused.
  if (key.empty() || key.size() > 0xffff) {
    throw std::invalid_argument("vfs: unwritable path: " + path);
  }
  const std::int64_t delta =
      static_cast<std::int64_t>(data.size()) -
      static_cast<std::int64_t>(backend_->size_of(key).value_or(0));
  resources_.charge_disk(delta);  // throws before touching the backend
  try {
    backend_->write(key, data);
  } catch (...) {
    resources_.charge_disk(-delta);  // a failed write stores nothing
    throw;
  }
}

std::optional<util::Bytes> Vfs::read(const std::string& path) const {
  return backend_->read(chroot_normalize(path));
}

bool Vfs::remove(const std::string& path) {
  const std::string key = chroot_normalize(path);
  const std::optional<std::size_t> size = backend_->size_of(key);
  if (!size.has_value() || !backend_->remove(key)) return false;
  resources_.charge_disk(-static_cast<std::int64_t>(*size));
  return true;
}

std::vector<std::string> Vfs::list() const { return backend_->list(); }

}  // namespace bento::sandbox
