#include "util/zlite.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "util/serialize.hpp"

namespace bento::util::zlite {

namespace {
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = 1 << 16;
constexpr std::size_t kWindow = 1 << 15;
constexpr std::uint8_t kLiteral = 0x00;
constexpr std::uint8_t kMatch = 0x01;

std::uint32_t load32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

std::uint32_t hash4(std::uint32_t v) {
  return (v * 2654435761u) >> 18;  // 14-bit table index
}

// One hash slot: the last position whose 4 bytes hashed here, beside those
// 4 bytes. `end` is position + kWindow + 1, so `end > i` is the window test
// and a zeroed (empty) slot never passes it.
struct Slot {
  std::uint64_t end;
  std::uint32_t word;
};
static_assert(sizeof(Slot) == 16);

// Length of the common prefix of a and b, at most `limit` bytes.
std::size_t match_length(const std::uint8_t* a, const std::uint8_t* b, std::size_t limit) {
  std::size_t len = 0;
  while (len + 8 <= limit) {
    const std::uint64_t diff = load64(a + len) ^ load64(b + len);
    if (diff != 0) {
      const int bit = std::endian::native == std::endian::little ? std::countr_zero(diff)
                                                                 : std::countl_zero(diff);
      return len + static_cast<std::size_t>(bit) / 8;
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}
}  // namespace

Bytes compress(ByteView input) {
  Writer w;
  w.raw(to_bytes("ZL1"));
  w.varint(input.size());

  std::array<Slot, 1 << 14> table{};
  const std::uint8_t* const p = input.data();
  const std::size_t n = input.size();

  std::size_t i = 0;
  std::size_t literal_start = 0;
  auto flush_literals = [&](std::size_t end) {
    if (end > literal_start) {
      w.u8(kLiteral);
      w.varint(end - literal_start);
      w.raw(input.subspan(literal_start, end - literal_start));
    }
  };

  while (i + kMinMatch <= n) {
    const std::uint32_t v = load32(p + i);
    Slot& slot = table[hash4(v)];
    const Slot prev = slot;
    slot = {i + kWindow + 1, v};
    // On incompressible input most positions fail here, on the word alone:
    // test it before the window so the common case waits on one load.
    if (prev.word != v) {
      ++i;
      continue;
    }
    if (prev.end <= i) {
      ++i;
      continue;
    }
    const std::size_t cand = prev.end - kWindow - 1;
    const std::size_t maxlen = std::min(kMaxMatch, n - i);
    const std::size_t len =
        kMinMatch + match_length(p + cand + kMinMatch, p + i + kMinMatch, maxlen - kMinMatch);
    flush_literals(i);
    w.u8(kMatch);
    w.varint(i - cand);
    w.varint(len);
    // Insert a few positions inside the match so later data can refer back.
    for (std::size_t k = 1; k < len && i + k + kMinMatch <= n; k += 7) {
      const std::uint32_t word = load32(p + i + k);
      table[hash4(word)] = {i + k + kWindow + 1, word};
    }
    i += len;
    literal_start = i;
  }
  flush_literals(n);
  return std::move(w).take();
}

Bytes decompress(ByteView input) {
  Reader r(input);
  Bytes magic = r.raw(3);
  if (to_string(magic) != "ZL1") throw ParseError("zlite: bad magic");
  const std::uint64_t original = r.varint();
  // No token writes more than 16 KiB per input byte: a match longer than
  // 16,383 bytes needs a 3-byte length, so 5 bytes in all. The declared
  // size is only a claim; reserve no more than the input can back.
  const std::uint64_t producible =
      static_cast<std::uint64_t>(r.remaining()) * (kMaxMatch / 4);
  Bytes out;
  out.reserve(static_cast<std::size_t>(std::min(original, producible)));
  // Stop once the declared size is reached: callers may append padding
  // after the compressed stream (the Browser function does exactly that).
  while (!r.done() && out.size() < original) {
    const std::uint8_t tag = r.u8();
    const std::uint64_t room = original - out.size();
    if (tag == kLiteral) {
      const std::uint64_t len = r.varint();
      if (len > room) throw ParseError("zlite: output overrun");
      const ByteView lit = r.view(static_cast<std::size_t>(len));
      out.insert(out.end(), lit.begin(), lit.end());
    } else if (tag == kMatch) {
      const std::uint64_t dist = r.varint();
      const std::uint64_t len = r.varint();
      if (dist == 0 || dist > out.size()) throw ParseError("zlite: bad distance");
      if (len < kMinMatch || len > kMaxMatch) throw ParseError("zlite: bad match length");
      if (len > room) throw ParseError("zlite: output overrun");
      // Runs of at most `dist` bytes never overlap their source, and a
      // later run reads what an earlier one wrote, as LZ77 requires.
      const std::size_t at = out.size();
      out.resize(at + len);
      for (std::size_t done = 0; done < len;) {
        const std::size_t run = std::min<std::size_t>(dist, len - done);
        std::memcpy(out.data() + at + done, out.data() + at + done - dist, run);
        done += run;
      }
    } else {
      throw ParseError("zlite: bad token");
    }
  }
  if (out.size() != original) throw ParseError("zlite: size mismatch");
  return out;
}

}  // namespace bento::util::zlite
