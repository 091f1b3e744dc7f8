// Multipath routing (paper §9.4 "Future ideas"): "a multipath routing
// scheme that splits a stream across multiple circuits sharing a common
// exit relay ... Rather than modify the Tor code base, we are exploring
// whether multipath routing designs can be implemented as Bento functions."
//
// Implemented here as exactly that — a Bento function, no Tor changes:
//
//   * MultipathFetchFunction runs on an exit Bento box. A client opens N
//     independent circuits that all terminate at that box (the common
//     exit), shares one invocation token across them, and asks each
//     channel for one stripe of the response. The function fetches the URL
//     once and stripes sequence-numbered chunks round-robin across the
//     channels, so the N circuits carry the download concurrently.
//   * MultipathFetcher is the client-side driver: deploy, open the
//     parallel channels, reassemble by sequence number.
//
// When middle relays are the per-circuit bottleneck, throughput scales
// with the number of circuits until the exit's own link saturates — the
// effect mTor/conflux-style designs are after (see bench/ext_multipath).
#pragma once

#include <functional>
#include <map>

#include "core/api.hpp"
#include "core/client.hpp"
#include "util/bytes.hpp"

namespace bento::functions {

/// Chunk wire format: u32 stripe sequence number + data. Sequence numbers
/// are global chunk indices; chunk i goes to channel (i % stripe_count).
inline constexpr std::size_t kMultipathChunk = 16 * 1024;

class MultipathFetchFunction final : public core::Function {
 public:
  void on_install(core::HostApi& api, util::ByteView args) override;
  /// Message: "FETCH <url> <stripe_index> <stripe_count>".
  void on_message(core::HostApi& api, util::Bytes payload) override;

 private:
  struct Stripe {
    std::uint64_t handle = 0;
    int index = 0;
  };
  void serve(core::HostApi& api);

  std::string url_;
  int stripe_count_ = 0;
  std::vector<Stripe> stripes_;
  bool fetching_ = false;
  bool fetched_ = false;
  util::Bytes body_;
};

core::FunctionManifest multipath_manifest();
void register_multipath(core::NativeRegistry& registry);

/// Client-side driver.
class MultipathFetcher {
 public:
  MultipathFetcher(core::BentoClient& bento, int circuits)
      : bento_(bento), circuits_(circuits) {}

  struct Result {
    bool ok = false;
    util::Bytes body;
    double seconds = 0;
    std::vector<std::size_t> per_path_bytes;
  };
  using DoneFn = std::function<void(Result)>;

  /// Deploys the function on `exit_box` and fetches `url` over `circuits`
  /// parallel circuits. `now` supplies timestamps (simulation seconds).
  void fetch(const std::string& exit_box, const std::string& url,
             std::function<double()> now, DoneFn done);

 private:
  core::BentoClient& bento_;
  int circuits_;
};

}  // namespace bento::functions
