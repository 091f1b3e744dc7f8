// The benchmark's four workloads over core::BentoWorld. Every op crosses the
// real stack: onion-encrypted over a 3-hop circuit to a Bento box, server
// dispatch, the conclave ecall, the sandbox and BentoScript, and back.
//
// Load shape: one thread, one simulated client, one op in flight; the next
// op is issued when world.run() has quiesced after the previous one (a
// closed loop). All inputs — payloads, sizes, site order, box choice — are
// drawn from the seed by make_inputs() before anything is timed.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/world.hpp"
#include "tor/address.hpp"
#include "util/bytes.hpp"

namespace perfbench {

enum class Kind { Echo, Dropbox, Session, Browse };

std::optional<Kind> parse_kind(const std::string& name);

/// One op of the seeded schedule. `box` is an index into the deployment's
/// seeded box order; `payload` indexes Inputs::payloads.
struct Step {
  std::uint32_t box = 0;
  std::uint32_t payload = 0;
  bool put = false;  // dropbox: PUT (else GET)
};

/// Everything the program receives, generated from the seed up front.
struct Inputs {
  Kind kind = Kind::Echo;
  std::uint64_t seed = 0;
  std::string source;                  // the deployed BentoScript function
  bento::core::FunctionManifest manifest;
  std::vector<bento::util::Bytes> payloads;  // echo bodies, PUT bodies, site bundles
  std::vector<bento::util::Bytes> requests;  // the Invoke payload for payloads[i]
  /// The one Output requests[i] must produce: the echo body, "OK" for a
  /// PUT, or the zlite-compressed bundle (checked at generation to
  /// decompress to payloads[i]).
  std::vector<bento::util::Bytes> replies;
  bento::util::Bytes get_request;            // dropbox "GET:"
  std::vector<Step> schedule;                // cycled by op index
  std::vector<bento::tor::Addr> site_addrs;  // browse: web server of payloads[i]
};

Inputs make_inputs(Kind kind, std::uint64_t seed);

/// The five Table 2 sites' bundles (index document plus every resource),
/// as the browse web servers serve them, in wf::table2_sites() order.
std::vector<bento::util::Bytes> site_bundles();

/// What one op cost and whether its output was right.
struct OpOutcome {
  bool ok = false;
  std::uint64_t payload_bytes = 0;  // Invoke payload + Output payload bytes
  std::int64_t sim_us = 0;          // client-observed sim time
  bool put = false;
  bool get = false;
};

/// Wall time of each client phase of a session, in µs, and the sim time
/// the client waited for its replies.
struct SessionTiming {
  double connect_us = 0;
  double spawn_us = 0;
  double upload_us = 0;
  double shutdown_us = 0;
  std::int64_t sim_us = 0;
};

/// A built world with the workload's function deployed: the set-up phase.
class Deployment {
 public:
  /// World build plus connect, spawn and upload on every box the workload
  /// keeps open (none for `session`, whose ops do their own). Throws
  /// std::runtime_error when any of it fails.
  explicit Deployment(const Inputs& inputs);

  /// Runs op `i` of the schedule to completion and checks its output.
  OpOutcome run_op(std::size_t i);

  /// One full session on `box` (connect, spawn with attestation, upload the
  /// workload's function, shutdown, close), timed into `timing`. When
  /// `request`/`expect` are given, one invoke is made before shutdown and
  /// its single output must equal `expect`. Returns false on any failure.
  bool session(const std::string& box, const bento::util::Bytes* request,
               const bento::util::Bytes* expect, SessionTiming& timing);

  bento::core::BentoWorld& world() { return *world_; }
  bento::core::BentoWorld::Client& client() { return client_; }
  const std::vector<std::string>& boxes() const { return boxes_; }

 private:
  struct Open {
    std::shared_ptr<bento::core::BentoConnection> conn;
    bento::util::Bytes invocation;
    bento::util::Bytes shutdown;
  };

  std::optional<Open> open(const std::string& box, SessionTiming& timing);
  /// Invokes on `open` and waits for quiescence; true iff exactly one
  /// Output arrived and it equals `expect`.
  bool invoke(Open& open, const bento::util::Bytes& request,
              const bento::util::Bytes& expect, std::int64_t* sim_us);
  std::int64_t now_us() { return world_->sim().now().micros(); }

  const Inputs& in_;
  std::unique_ptr<bento::core::BentoWorld> world_;
  bento::core::BentoWorld::Client client_;
  std::vector<std::string> boxes_;   // seeded order
  std::vector<Open> deployed_;       // parallel to boxes_ (not for session)
  std::vector<int> last_put_;        // dropbox: payload index last PUT per box
  std::vector<bento::util::Bytes> outputs_;
  std::int64_t output_sim_us_ = 0;
};

}  // namespace perfbench
