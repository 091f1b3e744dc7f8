// bentotrace — analysis CLI for Bento flight-recorder dumps.
//
// Usage:
//   bentotrace summary <trace.jsonl>   per-stage latency table + TTFB/TTLB
//   bentotrace tree    <trace.jsonl>   reconstructed span trees, one per request
//   bentotrace chrome  <trace.jsonl>   Chrome trace_event JSON (about:tracing)
//   bentotrace slo     <trace.jsonl> SPEC [SPEC...]
//                                      evaluate SLO specs (series:aggregator,
//                                      see obs/slo.hpp, e.g.
//                                      ttfb_us:p99<=250000 or
//                                      critpath.total_us:max<=765000)
//                                      against the trace; exit 0 pass / 1 fail
//   bentotrace critpath <trace.jsonl> [--json]
//                                      per-request critical-path blame,
//                                      aggregated with p50-body vs p99-tail
//                                      cohorts (DESIGN.md §14)
//   bentotrace diff A B                align two runs' blame profiles (each
//                                      side a trace.jsonl) and flag segments
//                                      whose mean or tail mean grew by >10%
//                                      and >50 us (DESIGN.md §14); exit 0 ok
//                                      / 1 regressed
//
// `-` reads the dump from stdin. Every subcommand walks the one span forest
// obs::build_forest() links from the dump.

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bentotrace/report.hpp"
#include "obs/critpath.hpp"
#include "obs/forest.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"

namespace bo = bento::obs;

namespace {

int usage() {
  std::cerr << "usage: bentotrace <summary|tree|chrome> <trace.jsonl|->\n"
               "       bentotrace slo <trace.jsonl|-> SPEC [SPEC...]\n"
               "       bentotrace critpath <trace.jsonl|-> [--json]\n"
               "       bentotrace diff <A> <B>\n";
  return 2;
}

bool read_trace(const std::string& path, bo::JsonlTrace& out) {
  if (path == "-") {
    out = bo::read_jsonl(std::cin);
    return true;
  }
  std::ifstream in(path);
  if (!in) {
    std::cerr << "bentotrace: cannot open " << path << "\n";
    return false;
  }
  out = bo::read_jsonl(in);
  return true;
}

// One side of a diff: a run's blame profile, from a dump with events.
bool read_blame(const std::string& path, bo::BlameProfile& out) {
  bo::JsonlTrace trace;
  if (!read_trace(path, trace)) return false;
  if (trace.events.empty()) {
    std::cerr << "bentotrace: " << path << ": not a trace.jsonl\n";
    return false;
  }
  out = bo::aggregate_blame(bo::compute_critical_paths(bo::build_forest(trace.events)));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  const std::string path = argv[2];

  if (cmd == "diff") {
    if (argc != 4) return usage();
    bo::BlameProfile a;
    bo::BlameProfile b;
    if (!read_blame(path, a) || !read_blame(argv[3], b)) return 1;
    const bo::BlameDiff diff = bo::diff_blame(a, b);
    std::cout << diff.to_string();
    return diff.regressed() ? 1 : 0;
  }

  bo::JsonlTrace trace;
  if (!read_trace(path, trace)) return 1;
  const bo::SpanForest forest = bo::build_forest(trace.events, trace.unparsed);

  if (cmd == "critpath") {
    bool json = false;
    for (int i = 3; i < argc; ++i) {
      if (std::string(argv[i]) == "--json") {
        json = true;
      } else {
        return usage();
      }
    }
    const bo::BlameProfile profile =
        bo::aggregate_blame(bo::compute_critical_paths(forest));
    std::cout << (json ? profile.to_json() : profile.to_string());
    return 0;
  }

  if (cmd == "slo") {
    if (argc < 4) return usage();
    std::vector<bo::SloSpec> specs;
    for (int i = 3; i < argc; ++i) {
      bo::SloSpec spec;
      std::string err;
      if (!bo::parse_slo_spec(argv[i], spec, &err)) {
        std::cerr << "bentotrace: bad SLO spec '" << argv[i] << "': " << err
                  << "\n";
        return 2;
      }
      specs.push_back(spec);
    }
    const bo::SloReport report = bo::evaluate_trace_slos(forest, specs);
    std::cout << report.to_string();
    return report.pass() ? 0 : 1;
  }

  if (argc != 3) return usage();
  if (cmd == "summary") {
    bento::tools::format_summary(trace, forest, std::cout);
  } else if (cmd == "tree") {
    bento::tools::format_tree(forest, std::cout);
  } else if (cmd == "chrome") {
    bento::tools::export_chrome(forest, std::cout);
  } else {
    return usage();
  }
  return 0;
}
