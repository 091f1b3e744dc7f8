// Shard (paper §9.3): spread a file across N Dropboxes so any K recover it.
//
// "Shard uses standard linear encoding techniques to ensure that retrieving
// any k of the N shards suffices to reconstruct the file" — implemented as
// an erasure code over GF(256) with a Cauchy generator matrix, whose every
// k×k submatrix is invertible, so *any* k distinct shards decode (a digital
// fountain in the Byers et al. sense for fixed n).
//
// ShardClient is the client-side driver: encode, deploy a Dropbox function
// per shard on distinct Bento boxes, PUT each shard, and later GET any k
// and decode.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/client.hpp"
#include "util/bytes.hpp"

namespace bento::functions {

// ---- GF(256) arithmetic (AES polynomial 0x11b, generator 3) ----
namespace gf256 {
std::uint8_t mul(std::uint8_t a, std::uint8_t b);
std::uint8_t inv(std::uint8_t a);  // a != 0
inline std::uint8_t add(std::uint8_t a, std::uint8_t b) { return a ^ b; }
}  // namespace gf256

struct Shard {
  std::uint8_t index = 0;  // row of the generator matrix
  std::uint16_t k = 0;
  std::uint16_t n = 0;
  std::uint64_t original_size = 0;
  util::Bytes data;

  util::Bytes serialize() const;
  static Shard deserialize(util::ByteView wire);
};

/// Splits `data` into k source blocks and emits n coded shards.
/// Requires 1 <= k <= n and k + n <= 255.
std::vector<Shard> shard_encode(util::ByteView data, int k, int n);

/// Reconstructs from >= k distinct shards of the same file; nullopt if
/// fewer than k distinct indices (or inconsistent parameters) are given.
std::optional<util::Bytes> shard_decode(const std::vector<Shard>& shards);

/// Client-side orchestration: one Dropbox per shard on distinct boxes.
class ShardClient {
 public:
  ShardClient(core::BentoClient& bento, int k, int n) : bento_(bento), k_(k), n_(n) {}

  struct Placement {
    std::string box;
    util::Bytes invocation_token;
    util::Bytes shutdown_token;
  };
  using StoreFn = std::function<void(bool ok, std::vector<Placement>)>;
  using FetchFn = std::function<void(std::optional<util::Bytes>)>;

  /// Encodes and stores shards on the given boxes (needs exactly n boxes).
  void store(util::ByteView data, const std::vector<std::string>& boxes,
             StoreFn done);

  /// Fetches shards from the given subset of placements (any >= k) and
  /// decodes.
  void fetch(const std::vector<Placement>& placements, FetchFn done);

  /// Recovery (DESIGN.md §9): probes every placement, reconstructs the file
  /// from any >= k surviving Dropboxes, re-encodes (shard_encode is
  /// deterministic, so surviving shards stay valid), and re-seeds each lost
  /// shard onto the next spare box. `done(ok, updated)` gets the placement
  /// list with dead slots replaced; ok means every lost shard was re-seeded.
  /// Placement order must match shard index (as store() produces).
  using RepairFn = std::function<void(bool ok, std::vector<Placement>)>;
  void repair(const std::vector<Placement>& placements,
              const std::vector<std::string>& spare_boxes, RepairFn done);

 private:
  /// Deploys a Dropbox on `box` and PUTs `shard` into it (the per-shard leg
  /// of store()/repair()).
  void put_shard(const std::string& box, Shard shard,
                 std::function<void(bool ok, Placement)> done);
  /// GETs the shard `placement` holds (the per-shard leg of fetch() and of
  /// repair()'s probe); nullopt when the box is unreachable, answers
  /// MISSING or sends something that is not a shard.
  void get_shard(const Placement& placement,
                 std::function<void(std::optional<Shard>)> done);

  core::BentoClient& bento_;
  int k_;
  int n_;
};

}  // namespace bento::functions
