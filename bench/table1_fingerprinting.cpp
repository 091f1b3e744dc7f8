// Table 1 (paper §7.3): accuracy of a website-fingerprinting attack
// against unmodified Tor and against Browser with 0/1/7 MB padding.
//
// Paper setup: 100 popular sites, >= 10 visits each, attacker records the
// client<->guard link, Deep Fingerprinting CNN. Here: 100 structured site
// models, a k-NN and an MLP attacker over CUMUL/DF-style features, traces
// captured at the victim's access link of the simulated Tor network.
//
//   100 sites x 8 visits per configuration; --quick runs 25 x 4.
#include <cstdio>
#include <cstring>

#include "wf/experiment.hpp"

namespace bw = bento::wf;

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const int sites_count = quick ? 25 : 100;
  const int visits = quick ? 4 : 8;
  const int train = visits * 2 / 3 > 0 ? visits * 2 / 3 : 1;

  std::printf("Table 1: website-fingerprinting accuracy vs Browser padding\n");
  std::printf("(%d sites x %d visits per configuration; %d train / %d test)\n\n",
              sites_count, visits, train, visits - train);

  bento::util::Rng site_rng(20210823);
  auto sites = bw::make_popular_sites(sites_count, site_rng);

  struct Row {
    bw::Defense defense;
    double paper_accuracy;
  };
  const Row rows[] = {
      {bw::Defense::None, 0.939},
      {bw::Defense::Browser0, 0.696},
      {bw::Defense::Browser1MB, 0.0825},
      {bw::Defense::Browser7MB, 0.000},
  };

  std::printf("%-28s %10s %12s %12s\n", "Defense", "paper", "measured-MLP",
              "measured-kNN");
  for (const Row& row : rows) {
    bw::CollectOptions options;
    options.defense = row.defense;
    options.visits_per_site = visits;
    options.seed = 1729;
    auto data = bw::collect_dataset(sites, options, [&](int done, int total) {
      if (done % 100 == 0 || done == total) {
        std::fprintf(stderr, "  [%s] %d/%d visits\r", bw::to_string(row.defense),
                     done, total);
      }
    });
    std::fprintf(stderr, "\n");
    auto attack = bw::evaluate_attack(data, sites_count, train, 99);
    std::printf("%-28s %9.1f%% %11.1f%% %11.1f%%\n", bw::to_string(row.defense),
                row.paper_accuracy * 100, attack.mlp_accuracy * 100,
                attack.knn_accuracy * 100);
  }
  std::printf(
      "\nShape to check (paper): near-perfect on unmodified Tor; a clear drop\n"
      "with Browser alone; near-chance (1/%d = %.1f%%) at 1MB padding;\n"
      "chance at 7MB (every trace is the same size).\n",
      sites_count, 100.0 / sites_count);
  return 0;
}
