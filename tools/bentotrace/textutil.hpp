// Shared text helpers for the bentotrace analysis library: fixed-width table
// columns and the key-directed scanner used to read back our own byte-stable
// JSON emitters (critpath blame profiles). The summary tables and the
// profile reader share this copy; critpath's own text tables are rendered
// in src/obs with their own column helpers.
#pragma once

#include <charconv>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace bento::tools {

/// Right-aligns `s` into a `width`-character column that starts with at
/// least one space, so a value as wide as its column still stands apart.
inline void rcol(std::ostream& os, const std::string& s, std::size_t width) {
  os << std::string(s.size() < width ? width - s.size() : 1, ' ') << s;
}

inline void rcol(std::ostream& os, std::int64_t v, std::size_t width) {
  rcol(os, std::to_string(v), width);
}

/// Key-directed scanner for our emitters' fixed shapes (no whitespace,
/// known key order). Like the jsonl reader, refusing anything else means a
/// foreign file is reported instead of half-read.
template <typename Int>
bool find_int(std::string_view text, std::string_view key, Int& out) {
  const std::size_t at = text.find(key);
  if (at == std::string_view::npos) return false;
  std::string_view rest = text.substr(at + key.size());
  const auto* begin = rest.data();
  const auto* end = rest.data() + rest.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr != begin;
}

/// Finds `"key":"value"` and extracts the (escape-free) string value.
inline bool find_str(std::string_view text, std::string_view key,
                     std::string& out) {
  const std::size_t at = text.find(key);
  if (at == std::string_view::npos) return false;
  std::string_view rest = text.substr(at + key.size());
  if (rest.empty() || rest.front() != '"') return false;
  rest.remove_prefix(1);
  const std::size_t close = rest.find('"');
  if (close == std::string_view::npos) return false;
  out.assign(rest.substr(0, close));
  return true;
}

/// Splits `text` into the `{...}` object bodies of the array at `key`.
inline std::vector<std::string_view> array_objects(std::string_view text,
                                                   std::string_view key) {
  std::vector<std::string_view> out;
  std::size_t at = text.find(key);
  if (at == std::string_view::npos) return out;
  at += key.size();
  while (at < text.size() && text[at] != ']') {
    if (text[at] != '{') {
      ++at;
      continue;
    }
    const std::size_t close = text.find('}', at);
    if (close == std::string_view::npos) break;
    out.push_back(text.substr(at + 1, close - at - 1));
    at = close + 1;
  }
  return out;
}

}  // namespace bento::tools
