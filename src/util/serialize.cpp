#include "util/serialize.hpp"

namespace bento::util {

void Writer::u8(std::uint8_t v) { out_.push_back(v); }

void Writer::u16(std::uint16_t v) {
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
  out_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::u32(std::uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    out_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void Writer::u64(std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void Writer::raw(ByteView b) { append(out_, b); }

void Writer::blob(ByteView b) {
  u32(static_cast<std::uint32_t>(b.size()));
  raw(b);
}

void Writer::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_.insert(out_.end(), s.begin(), s.end());
}

void Writer::varint(std::uint64_t v) {
  while (v >= 0x80) {
    out_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out_.push_back(static_cast<std::uint8_t>(v));
}

void Reader::need(std::size_t n) const {
  if (remaining() < n) throw ParseError("Reader: truncated input");
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] << 8 | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + i];
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_ + i];
  pos_ += 8;
  return v;
}

Bytes Reader::raw(std::size_t n) {
  need(n);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

ByteView Reader::view(std::size_t n) {
  need(n);
  ByteView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

Bytes Reader::blob() {
  std::uint32_t n = u32();
  return raw(n);
}

ByteView Reader::blob_view() {
  std::uint32_t n = u32();
  return view(n);
}

std::string Reader::str() {
  Bytes b = blob();
  return std::string(b.begin(), b.end());
}

std::uint64_t Reader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    std::uint8_t byte = u8();
    if (shift >= 63 && (byte & 0x7f) > 1) throw ParseError("varint: overflow");
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

void Reader::expect_done() const {
  if (!done()) throw ParseError("Reader: trailing bytes");
}

}  // namespace bento::util
