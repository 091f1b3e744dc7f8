#include "wf/pageload.hpp"

#include <memory>

namespace bento::wf {

namespace {
/// Sub-resource streams a browser keeps open at once.
constexpr int kMaxConcurrentStreams = 6;

struct LoadState {
  tor::CircuitOrigin* circuit;
  const SiteModel* site;
  std::function<void(PageLoadResult)> done;
  PageLoadResult result;
  std::size_t next_resource = 0;
  int in_flight = 0;
  bool failed = false;

  void fetch(const std::string& path, std::function<void(bool)> finished);
  void pump();
};

void LoadState::fetch(const std::string& path, std::function<void(bool)> finished) {
  tor::Stream::Callbacks cbs;
  auto finished_shared = std::make_shared<std::function<void(bool)>>(std::move(finished));
  cbs.on_data = [this](util::ByteView data) { result.bytes += data.size(); };
  cbs.on_end = [finished_shared] { (*finished_shared)(true); };
  tor::Stream* stream =
      circuit->open_stream({site->addr, 80}, std::move(cbs));
  stream->set_on_connected([stream, path] {
    stream->send(util::to_bytes("GET " + path + "\n"));
  });
}

void LoadState::pump() {
  if (failed) return;
  while (in_flight < kMaxConcurrentStreams && next_resource < site->resource_bytes.size()) {
    const std::string path = "/r" + std::to_string(next_resource++);
    ++in_flight;
    fetch(path, [this](bool ok) {
      --in_flight;
      if (!ok) failed = true;
      pump();
    });
  }
  if (in_flight == 0 && next_resource >= site->resource_bytes.size()) {
    result.ok = !failed;
    if (done) {
      auto cb = std::move(done);
      done = nullptr;
      cb(result);
    }
  }
}
}  // namespace

void browse_page(tor::CircuitOrigin& circuit, const SiteModel& site,
                 double time_now_seconds, std::function<void(PageLoadResult)> done) {
  auto state = std::make_shared<LoadState>();
  state->circuit = &circuit;
  state->site = &site;
  state->result.started = time_now_seconds;
  // Keep the state alive through the callback chain.
  state->done = [state, done = std::move(done)](PageLoadResult result) mutable {
    done(result);
  };
  // Index first, then resources (browsers discover resources from the
  // document).
  state->fetch("/", [state](bool ok) {
    if (!ok) {
      state->failed = true;
      state->result.ok = false;
      auto cb = std::move(state->done);
      state->done = nullptr;
      if (cb) cb(state->result);
      return;
    }
    state->pump();
  });
}

}  // namespace bento::wf
