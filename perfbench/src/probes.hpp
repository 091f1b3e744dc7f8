// Per-layer wall-time probes for the traced run: bench-side timers around
// the benchmark's own calls into each layer's public functions, fed the
// workload's own inputs (payloads, requests, function source, boxes).
#pragma once

#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {

/// crypto, core framing, tee, sandbox, store, script and zlite probes.
void probe_layers(const Inputs& in, Metrics& out);

/// Session phases (core.connect_us ... core.shutdown_us) and circuit builds
/// (tor.circuit_build_us, tor.circuit_build_sim_ms) inside `d`'s world.
void probe_sessions(Deployment& d, const Inputs& in, Metrics& out);

}  // namespace perfbench
