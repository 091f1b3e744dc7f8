// Binary wire (de)serialization used by Tor cells and Bento messages.
//
// All multi-byte integers are big-endian (network order), matching the Tor
// cell format conventions. Reader throws util::ParseError on truncated or
// malformed input rather than returning partial data.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/bytes.hpp"

namespace bento::util {

/// Raised by Reader on truncated/invalid input.
class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends big-endian fields to an owned buffer.
class Writer {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Raw bytes, no length prefix.
  void raw(ByteView b);
  /// u32 length prefix + bytes.
  void blob(ByteView b);
  /// u32 length prefix + UTF-8 characters.
  void str(std::string_view s);
  /// Unsigned LEB128.
  void varint(std::uint64_t v);

  /// Sizes the buffer up front, for a caller that knows the total length.
  void reserve(std::size_t n) { out_.reserve(n); }

  const Bytes& data() const& { return out_; }
  Bytes take() && { return std::move(out_); }

 private:
  Bytes out_;
};

/// Consumes big-endian fields from a byte view.
class Reader {
 public:
  explicit Reader(ByteView data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  Bytes raw(std::size_t n);
  /// Zero-copy variant of raw(): a view into the underlying buffer, valid
  /// only as long as the buffer the Reader was constructed over.
  ByteView view(std::size_t n);
  Bytes blob();
  /// Zero-copy variant of blob(), with view()'s lifetime.
  ByteView blob_view();
  std::string str();
  std::uint64_t varint();

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return remaining() == 0; }
  /// Throws ParseError unless the whole input was consumed.
  void expect_done() const;

 private:
  void need(std::size_t n) const;
  ByteView data_;
  std::size_t pos_ = 0;
};

}  // namespace bento::util
