#include "wf/sites.hpp"

#include <cmath>

namespace bento::wf {

std::size_t SiteModel::total_bytes() const {
  std::size_t total = index_bytes;
  for (std::size_t r : resource_bytes) total += r;
  return total;
}

util::Bytes SiteModel::body_for(const std::string& path, std::uint64_t visit_seed,
                                double noise) const {
  std::size_t base = 0;
  if (path == "/" || path == "/index.html") {
    base = index_bytes;
  } else if (path.rfind("/r", 0) == 0) {
    const std::size_t idx = static_cast<std::size_t>(std::stoul(path.substr(2)));
    if (idx < resource_bytes.size()) base = resource_bytes[idx];
  }
  if (base == 0) return util::to_bytes("404");

  // Per-visit size jitter.
  util::Rng visit_rng(visit_seed ^ (addr * 2654435761u) ^
                      std::hash<std::string>{}(path));
  const double factor = 1.0 + noise * (visit_rng.uniform01() * 2.0 - 1.0);
  const std::size_t size = std::max<std::size_t>(
      64, static_cast<std::size_t>(static_cast<double>(base) * factor));

  // Content: first `entropy` fraction random (incompressible), rest a
  // repetitive HTML-ish pattern (compressible). Deterministic per site.
  util::Bytes body;
  body.reserve(size);
  util::Rng content_rng(addr * 7919u);
  const std::size_t random_part = static_cast<std::size_t>(
      static_cast<double>(size) * entropy);
  body = content_rng.bytes(random_part);
  const std::string pattern = "<div class=\"c" + std::to_string(addr % 97) +
                              "\"><a href=\"/x\">item</a></div>\n";
  while (body.size() < size) {
    const std::size_t take = std::min(pattern.size(), size - body.size());
    body.insert(body.end(), pattern.begin(), pattern.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return body;
}

util::Bytes SiteModel::bundle(std::uint64_t visit_seed, double noise) const {
  util::Bytes all = body_for("/", visit_seed, noise);
  for (std::size_t r = 0; r < resource_bytes.size(); ++r) {
    util::append(all, body_for("/r" + std::to_string(r), visit_seed, noise));
  }
  return all;
}

std::vector<SiteModel> make_popular_sites(int count, util::Rng& rng) {
  std::vector<SiteModel> sites;
  sites.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    SiteModel site;
    site.domain = "site" + std::to_string(i) + ".example";
    site.addr = tor::parse_addr("20." + std::to_string(i % 250) + "." +
                                std::to_string(i / 250) + ".1");
    // Log-uniform page sizes from ~60 KB to ~2.5 MB.
    const double log_total = std::log(60e3) +
                             rng.uniform01() * (std::log(2.5e6) - std::log(60e3));
    const double total = std::exp(log_total);
    const int resources = static_cast<int>(rng.uniform(4, 48));
    site.index_bytes = static_cast<std::size_t>(total * (0.08 + 0.12 * rng.uniform01()));
    const double rest = total - static_cast<double>(site.index_bytes);
    // Break the remainder into `resources` pieces with a skewed split.
    std::vector<double> weights;
    double weight_sum = 0;
    for (int r = 0; r < resources; ++r) {
      const double w = std::exp(rng.gaussian(0.0, 1.0));
      weights.push_back(w);
      weight_sum += w;
    }
    for (int r = 0; r < resources; ++r) {
      site.resource_bytes.push_back(std::max<std::size_t>(
          400, static_cast<std::size_t>(rest * weights[static_cast<std::size_t>(r)] /
                                        weight_sum)));
    }
    site.entropy = 0.25 + 0.6 * rng.uniform01();
    sites.push_back(std::move(site));
  }
  return sites;
}

std::vector<SiteModel> table2_sites() {
  // Sizes chosen so that (a) standard-Tor full-page times sit in the
  // paper's 3-8.5 s band at the calibrated circuit bandwidth, (b) pages
  // compress to under 1 MB except the largest, and (c) 7 MB padding
  // dominates everything (see bench/table2_download_times.cpp).
  auto make = [](const std::string& domain, tor::Addr addr, std::size_t index,
                 std::vector<std::size_t> resources, double entropy) {
    SiteModel s;
    s.domain = domain;
    s.addr = addr;
    s.index_bytes = index;
    s.resource_bytes = std::move(resources);
    s.entropy = entropy;
    return s;
  };
  std::vector<SiteModel> sites;
  sites.push_back(make("indiatoday.in", tor::parse_addr("30.1.0.1"), 180'000,
                       {120'000, 90'000, 80'000, 70'000, 60'000, 50'000, 45'000,
                        40'000, 35'000, 30'000, 28'000, 26'000, 24'000, 22'000,
                        20'000, 18'000, 16'000, 14'000, 12'000, 10'000},
                       0.55));
  sites.push_back(make("yahoo.com", tor::parse_addr("30.2.0.1"), 220'000,
                       {150'000, 110'000, 90'000, 75'000, 60'000, 50'000, 40'000,
                        35'000, 30'000, 25'000, 22'000, 20'000, 18'000, 15'000,
                        12'000, 10'000},
                       0.30));
  sites.push_back(make("netflix.com", tor::parse_addr("30.3.0.1"), 300'000,
                       {260'000, 200'000, 170'000, 150'000, 130'000, 110'000,
                        90'000, 80'000, 70'000, 60'000, 50'000, 40'000, 35'000,
                        30'000, 25'000, 20'000, 18'000, 16'000, 14'000, 12'000,
                        10'000, 10'000},
                       0.35));
  sites.push_back(make("ebay.com", tor::parse_addr("30.4.0.1"), 200'000,
                       {140'000, 100'000, 85'000, 70'000, 60'000, 50'000, 42'000,
                        36'000, 30'000, 26'000, 22'000, 18'000, 15'000, 12'000},
                       0.45));
  sites.push_back(make("aliexpress.com", tor::parse_addr("30.5.0.1"), 90'000,
                       {70'000, 55'000, 40'000, 32'000, 26'000, 20'000, 16'000,
                        12'000},
                       0.50));
  return sites;
}

}  // namespace bento::wf
