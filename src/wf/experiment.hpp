// The Table-1 experiment pipeline (§7.3 "Browser as a website
// fingerprinting defense"): collect labelled traces at the victim's guard
// link under each defense configuration, then train/evaluate the attack.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "wf/classifier.hpp"
#include "wf/sites.hpp"

namespace bento::wf {

enum class Defense {
  None,        // unmodified Tor browsing
  Browser0,    // Browser function, no padding
  Browser1MB,  // Browser, pad to 1 MB multiples
  Browser7MB,  // Browser, pad to 7 MB multiples
};

const char* to_string(Defense d);
std::size_t padding_bytes(Defense d);

struct CollectOptions {
  Defense defense = Defense::None;
  int visits_per_site = 10;
  std::uint64_t seed = 42;
};

/// Runs `visits_per_site` visits to every site under the given defense and
/// returns one labelled feature vector per visit. `progress(done, total)`
/// is optional.
std::vector<Example> collect_dataset(
    const std::vector<SiteModel>& sites, const CollectOptions& options,
    const std::function<void(int done, int total)>& progress = {});

struct AttackResult {
  double knn_accuracy = 0;
  double mlp_accuracy = 0;
  int train_examples = 0;
  int test_examples = 0;
};

/// Splits per class (first `train_per_class` visits train, rest test),
/// trains both attackers, reports accuracy on the held-out visits.
AttackResult evaluate_attack(const std::vector<Example>& data, int classes,
                             int train_per_class, std::uint64_t seed);

}  // namespace bento::wf
