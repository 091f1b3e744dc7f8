#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>

#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/zlite.hpp"

namespace bu = bento::util;
namespace zl = bento::util::zlite;

namespace {

// The encoder as it was first written: one position per hash slot, the
// window and the candidate's bytes tested on every position, the match
// extended a byte at a time. Every Browser reply and Table 2 size depends
// on the bytes compress() emits, so a faster encoder must emit these.
bu::Bytes reference_compress(bu::ByteView input) {
  constexpr std::size_t kMinMatch = 4;
  constexpr std::size_t kMaxMatch = 1 << 16;
  constexpr std::size_t kWindow = 1 << 15;
  auto hash4 = [](const std::uint8_t* p) {
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return (v * 2654435761u) >> 18;
  };
  bu::Writer w;
  w.raw(bu::to_bytes("ZL1"));
  w.varint(input.size());
  std::array<std::int64_t, 1 << 14> table;
  table.fill(-1);
  std::size_t i = 0;
  std::size_t literal_start = 0;
  auto flush_literals = [&](std::size_t end) {
    if (end > literal_start) {
      w.u8(0x00);
      w.varint(end - literal_start);
      w.raw(input.subspan(literal_start, end - literal_start));
    }
  };
  while (i + kMinMatch <= input.size()) {
    const std::uint32_t h = hash4(input.data() + i);
    const std::int64_t cand = table[h];
    table[h] = static_cast<std::int64_t>(i);
    if (cand >= 0 && i - static_cast<std::size_t>(cand) <= kWindow &&
        std::memcmp(input.data() + cand, input.data() + i, kMinMatch) == 0) {
      std::size_t len = kMinMatch;
      const std::size_t maxlen = std::min(kMaxMatch, input.size() - i);
      while (len < maxlen &&
             input[static_cast<std::size_t>(cand) + len] == input[i + len]) {
        ++len;
      }
      flush_literals(i);
      w.u8(0x01);
      w.varint(i - static_cast<std::size_t>(cand));
      w.varint(len);
      for (std::size_t k = 1; k < len && i + k + kMinMatch <= input.size(); k += 7) {
        table[hash4(input.data() + i + k)] = static_cast<std::int64_t>(i + k);
      }
      i += len;
      literal_start = i;
    } else {
      ++i;
    }
  }
  flush_literals(input.size());
  return std::move(w).take();
}

// Asserts compress() emits the reference bytes and that they round-trip.
void expect_reference_bytes(const bu::Bytes& in) {
  const bu::Bytes c = zl::compress(in);
  ASSERT_EQ(c, reference_compress(in)) << "input of " << in.size() << " bytes";
  ASSERT_EQ(zl::decompress(c), in) << "input of " << in.size() << " bytes";
}

// Random and repeated runs, plus copies from up to `reach` bytes back.
bu::Bytes mixed_content(bu::Rng& rng, std::size_t size, std::size_t reach) {
  bu::Bytes in;
  while (in.size() < size) {
    switch (rng.uniform(0, 3)) {
      case 0:
        bu::append(in, rng.bytes(rng.uniform(1, 300)));
        break;
      case 1:
        in.insert(in.end(), rng.uniform(1, 400), static_cast<std::uint8_t>(rng.uniform(0, 255)));
        break;
      case 2:
        if (!in.empty()) {
          const std::size_t dist = rng.uniform(1, std::min(in.size(), reach));
          for (std::size_t k = rng.uniform(1, 3000); k > 0; --k) in.push_back(in[in.size() - dist]);
        }
        break;
      default:
        for (std::size_t k = rng.uniform(1, 60); k > 0; --k) {
          in.push_back(static_cast<std::uint8_t>('a' + rng.uniform(0, 3)));
        }
        break;
    }
  }
  in.resize(size);
  return in;
}

// A page shaped as wf::SiteModel::body_for builds one: a random head of
// `entropy` of the size, then a repeated HTML row.
bu::Bytes site_like_body(std::size_t size, double entropy, std::uint32_t site) {
  bu::Rng rng(site * 7919u);
  bu::Bytes body = rng.bytes(static_cast<std::size_t>(static_cast<double>(size) * entropy));
  const std::string row = "<div class=\"c" + std::to_string(site % 97) +
                          "\"><a href=\"/x\">item</a></div>\n";
  while (body.size() < size) {
    const std::size_t take = std::min(row.size(), size - body.size());
    body.insert(body.end(), row.begin(), row.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return body;
}

}  // namespace

TEST(Zlite, EmptyRoundTrip) {
  bu::Bytes in;
  EXPECT_EQ(zl::decompress(zl::compress(in)), in);
}

TEST(Zlite, ShortRoundTrip) {
  bu::Bytes in = bu::to_bytes("abc");
  EXPECT_EQ(zl::decompress(zl::compress(in)), in);
}

TEST(Zlite, RepetitiveDataCompresses) {
  std::string s;
  for (int i = 0; i < 200; ++i) s += "the quick brown fox jumps over the lazy dog. ";
  bu::Bytes in = bu::to_bytes(s);
  bu::Bytes c = zl::compress(in);
  EXPECT_LT(c.size(), in.size() / 4);
  EXPECT_EQ(zl::decompress(c), in);
}

TEST(Zlite, RandomDataRoundTrips) {
  bu::Rng rng(1234);
  for (std::size_t n : {1u, 7u, 64u, 1000u, 50000u}) {
    bu::Bytes in = rng.bytes(n);
    EXPECT_EQ(zl::decompress(zl::compress(in)), in) << n;
  }
}

TEST(Zlite, HtmlLikeContentRoundTrips) {
  std::string page = "<html><head><title>x</title></head><body>";
  bu::Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    page += "<div class=\"item\"><a href=\"/page" + std::to_string(rng.uniform(0, 30)) +
            "\">link</a></div>";
  }
  page += "</body></html>";
  bu::Bytes in = bu::to_bytes(page);
  bu::Bytes c = zl::compress(in);
  EXPECT_LT(c.size(), in.size());
  EXPECT_EQ(zl::decompress(c), in);
}

TEST(Zlite, RejectsBadMagic) {
  EXPECT_THROW(zl::decompress(bu::to_bytes("XX1abcdef")), bu::ParseError);
}

TEST(Zlite, RejectsTruncated) {
  bu::Bytes c = zl::compress(bu::to_bytes("hello hello hello hello"));
  c.resize(c.size() - 1);
  EXPECT_THROW(zl::decompress(c), bu::ParseError);
}

TEST(Zlite, RejectsCorruptDistance) {
  // Hand-craft: magic + original size 4 + match with distance 9 into empty output.
  bu::Writer w;
  w.raw(bu::to_bytes("ZL1"));
  w.varint(4);
  w.u8(0x01);
  w.varint(9);
  w.varint(4);
  EXPECT_THROW(zl::decompress(w.data()), bu::ParseError);
}

TEST(ZliteReference, TinyInputsMatch) {
  bu::Rng rng(20);
  for (std::size_t n = 0; n <= 64; ++n) {
    for (int trial = 0; trial < 8; ++trial) {
      bu::Bytes in(n);
      // Small alphabets make short matches likely.
      const std::uint64_t alphabet = trial < 4 ? 2 : 256;
      for (auto& b : in) b = static_cast<std::uint8_t>(rng.uniform(0, alphabet - 1));
      expect_reference_bytes(in);
    }
  }
}

TEST(ZliteReference, MixedContentMatches) {
  bu::Rng rng(21);
  for (int trial = 0; trial < 24; ++trial) {
    const std::size_t size = rng.uniform(0, 300'000);
    expect_reference_bytes(mixed_content(rng, size, trial % 2 ? 40'000 : 2'000));
  }
}

TEST(ZliteReference, RunsAroundTheMatchCapMatch) {
  for (std::size_t n : {65'535u, 65'536u, 65'537u, 131'073u}) {
    expect_reference_bytes(bu::Bytes(n, 0x5a));
  }
}

TEST(ZliteReference, RepeatsAtTheWindowEdgeMatch) {
  bu::Rng rng(22);
  for (std::size_t dist : {32'767u, 32'768u, 32'769u}) {
    const bu::Bytes head = rng.bytes(dist);
    bu::Bytes in = head;
    bu::append(in, head);
    bu::append(in, bu::ByteView(head).first(1000));
    expect_reference_bytes(in);
  }
}

TEST(ZliteReference, SiteLikeBodiesMatch) {
  // Table 2's index sizes and entropies, and a few smaller pages.
  const std::pair<std::size_t, double> pages[] = {
      {180'000, 0.55}, {220'000, 0.30}, {300'000, 0.35}, {200'000, 0.45},
      {90'000, 0.50},  {400, 0.5},      {12'000, 0.25},  {64, 0.85}};
  std::uint32_t site = 1;
  for (const auto& [size, entropy] : pages) {
    expect_reference_bytes(site_like_body(size, entropy, site++));
  }
}

TEST(Zlite, RejectsMatchPastTheCap) {
  // 21 bytes declaring 1 GiB: the literal "abcd", then one match of
  // 2^30 - 4 bytes at distance 1. The encoder never emits a match longer
  // than 65,536 bytes, so the stream is malformed, not a 1 GiB page.
  bu::Writer w;
  w.raw(bu::to_bytes("ZL1"));
  w.varint(std::uint64_t{1} << 30);
  w.u8(0x00);
  w.varint(4);
  w.raw(bu::to_bytes("abcd"));
  w.u8(0x01);
  w.varint(1);
  w.varint((std::uint64_t{1} << 30) - 4);
  ASSERT_EQ(w.data().size(), 21u);
  EXPECT_THROW(zl::decompress(w.data()), bu::ParseError);
}

TEST(Zlite, RejectsTokensPastTheDeclaredSize) {
  // "abcd" declared as 6 bytes, then a match of 4 at distance 4: 8 bytes.
  bu::Writer match;
  match.raw(bu::to_bytes("ZL1"));
  match.varint(6);
  match.u8(0x00);
  match.varint(4);
  match.raw(bu::to_bytes("abcd"));
  match.u8(0x01);
  match.varint(4);
  match.varint(4);
  EXPECT_THROW(zl::decompress(match.data()), bu::ParseError);
  // A 4-byte literal declared as 2 bytes.
  bu::Writer literal;
  literal.raw(bu::to_bytes("ZL1"));
  literal.varint(2);
  literal.u8(0x00);
  literal.varint(4);
  literal.raw(bu::to_bytes("abcd"));
  EXPECT_THROW(zl::decompress(literal.data()), bu::ParseError);
}

// Property sweep: all sizes round-trip for mixed compressible/random content.
class ZliteSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ZliteSweep, MixedContentRoundTrips) {
  bu::Rng rng(GetParam() * 77 + 1);
  bu::Bytes in;
  // Alternate random and repeated runs.
  while (in.size() < GetParam()) {
    if (rng.chance(0.5)) {
      bu::append(in, rng.bytes(rng.uniform(1, 50)));
    } else {
      bu::Bytes run(rng.uniform(4, 100), static_cast<std::uint8_t>(rng.uniform(0, 255)));
      bu::append(in, run);
    }
  }
  in.resize(GetParam());
  EXPECT_EQ(zl::decompress(zl::compress(in)), in);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ZliteSweep,
                         ::testing::Values(0, 1, 3, 4, 5, 16, 63, 64, 65, 255, 256,
                                           1023, 4096, 32768, 100000));
