// §7.3 "Scalability of Browser": how many concurrent functions fit on one
// Bento box given SGX's protected-memory budget.
//
// Paper numbers: Bento server + Browser use ~16-20 MB; conclaves add
// ~7.3 MB; usable EPC is 93 MiB [34]; paging exists beyond that. This
// harness deploys Browser-sized functions one by one onto a single box and
// reports committed EPC, the paging point, and the conclave-transition
// overhead per invocation.
#include <cstdio>

#include "core/world.hpp"
#include "functions/library.hpp"
#include "tee/epc.hpp"

namespace bc = bento::core;
namespace bf = bento::functions;
namespace bu = bento::util;

namespace {
// The paper's measured Browser working set (§7.3: "maximum memory usage of
// a Bento server and Browser is roughly 16-20 MB").
constexpr std::size_t kBrowserWorkingSet = 18u << 20;
}  // namespace

int main() {
  std::printf("Scalability (paper 7.3): concurrent Browser-sized functions vs "
              "the 93 MiB usable EPC\n\n");
  std::printf("conclave baseline overhead: %.1f MB (paper: 7.3 MB)\n",
              bento::tee::Conclave::kBaselineOverheadBytes / 1e6);
  std::printf("modelled Browser working set: %.1f MB (paper: 16-20 MB)\n",
              kBrowserWorkingSet / 1e6);
  std::printf("usable EPC: %.1f MiB\n\n", bento::tee::kEpcUsableBytes / 1048576.0);

  bc::BentoWorld world;
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  const std::string box = boxes[0];
  bc::BentoServer* server = world.server_for(box);

  std::printf("%-10s %-14s %-12s %-12s\n", "functions", "EPC committed",
              "paging?", "page faults");
  for (int i = 1; i <= 8; ++i) {
    std::shared_ptr<bc::BentoConnection> conn;
    client.bento->connect(box, [&](std::shared_ptr<bc::BentoConnection> c) {
      conn = std::move(c);
    });
    world.run();
    if (conn == nullptr) break;
    auto manifest = bf::browser_manifest();
    manifest.name = "browser-" + std::to_string(i);
    bool installed = false;
    std::string error = "no reply";
    conn->install(manifest, bf::browser_source(), "", {},
                  [&](std::optional<bc::TokenPair> t, std::string e) {
                    installed = t.has_value();
                    error = std::move(e);
                  });
    world.run();
    if (!installed) {
      std::printf("function %d refused (%s)\n", i, error.c_str());
      break;
    }
    // Model the function's steady-state working set against the EPC, as the
    // paper does when estimating how many functions fit.
    // (The script interpreter's own heap is tiny; the paper's figure counts
    // the whole CPython + requests stack, which we account for explicitly.)
    server->epc().allocate(1000 + static_cast<std::uint64_t>(i), kBrowserWorkingSet);

    std::printf("%-10d %-14.1f %-12s %-12llu\n", i,
                server->epc().committed() / 1e6,
                server->epc().paging() ? "yes" : "no",
                static_cast<unsigned long long>(server->epc().page_faults()));
  }

  const std::size_t per_function_bytes =
      kBrowserWorkingSet + bento::tee::Conclave::kBaselineOverheadBytes;
  std::printf("\nfit without paging: %d functions of %.1f MB each "
              "(paper: \"multiple functions without straining the SGX memory "
              "limits\")\n",
              static_cast<int>(bento::tee::kEpcUsableBytes / per_function_bytes),
              per_function_bytes / 1e6);
  std::printf("conclave transition overhead per invocation: %lld us "
              "(paper: nominal vs Tor's circuit latency)\n",
              static_cast<long long>(bc::kEcallOverhead.count_micros()));
  return 0;
}
