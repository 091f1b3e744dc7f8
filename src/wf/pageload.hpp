// Page loading over Tor, the two ways the paper evaluates (§7.3):
//
//   * standard Tor: the victim's browser fetches the index and then the
//     sub-resources (up to 6 concurrent streams, like a browser) through a
//     3-hop circuit — the fetch dynamics happen on the victim's link;
//   * Bento Browser: a one-line invoke travels up, the function fetches the
//     page at the exit, compresses, pads, and a single bulk stream comes
//     back.
#pragma once

#include <functional>
#include <string>

#include "tor/circuit.hpp"
#include "wf/sites.hpp"

namespace bento::wf {

struct PageLoadResult {
  bool ok = false;
  std::size_t bytes = 0;     // application bytes received
  double started = 0;        // seconds
  double page_ready = 0;     // last *content* byte (Table 2's render time)
  double finished = 0;       // last byte including padding
};

/// Fetches a site like a browser over an existing circuit. `done` fires
/// once every resource completed (or any failed).
void browse_page(tor::CircuitOrigin& circuit, const SiteModel& site,
                 double time_now_seconds,
                 std::function<void(PageLoadResult)> done);

}  // namespace bento::wf
