// Synthetic-but-structured website models (substitute for the Alexa top
// sites of paper §7.3; see DESIGN.md §2).
//
// Each site is a web server address plus a page structure — index document
// and a set of sub-resources with sizes — drawn once per site from wide
// distributions (so sites are individually distinctive, the property
// website fingerprinting exploits) plus per-visit noise (so the attack has
// to generalize, not memoize).
#pragma once

#include <string>
#include <vector>

#include "tor/address.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace bento::wf {

struct SiteModel {
  std::string domain;
  tor::Addr addr = 0;
  std::size_t index_bytes = 30'000;
  std::vector<std::size_t> resource_bytes;
  /// Fraction of zlite-incompressible content (0 = all compressible).
  double entropy = 0.5;

  std::size_t total_bytes() const;

  /// Body for `path`: "/" is the index, "/rN" the Nth resource. Content is
  /// a deterministic mix of repetitive and pseudo-random bytes so that
  /// compression ratios differ per site. `visit_seed` adds per-visit
  /// variation of ±noise to sizes.
  util::Bytes body_for(const std::string& path, std::uint64_t visit_seed,
                       double noise) const;

  /// The whole page as one "/bundle" document: the index, then every
  /// resource in order, each as body_for() gives it.
  util::Bytes bundle(std::uint64_t visit_seed, double noise) const;
};

/// `count` distinctive "popular sites" (index 0..count-1), addresses
/// 20.<i>.0.1.
std::vector<SiteModel> make_popular_sites(int count, util::Rng& rng);

/// The five Table-2 domains with sizes calibrated so the simulated
/// download times land near the paper's (see bench/table2).
std::vector<SiteModel> table2_sites();

}  // namespace bento::wf
