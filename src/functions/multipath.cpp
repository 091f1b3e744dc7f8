#include "functions/multipath.hpp"

#include <sstream>

#include "util/serialize.hpp"

namespace bento::functions {

namespace sb = sandbox;

void MultipathFetchFunction::on_install(core::HostApi& api, util::ByteView) {
  api.log("multipath: installed");
}

void MultipathFetchFunction::on_message(core::HostApi& api, util::Bytes payload) {
  std::istringstream in(util::to_string(payload));
  std::string verb, url;
  int index = 0, count = 0;
  if (!(in >> verb >> url >> index >> count) || verb != "FETCH" || count < 1 ||
      index < 0 || index >= count) {
    api.send(util::to_bytes("ERR bad request"));
    return;
  }
  if (stripe_count_ != 0 && (url != url_ || count != stripe_count_)) {
    api.send(util::to_bytes("ERR inconsistent stripes"));
    return;
  }
  url_ = url;
  stripe_count_ = count;
  stripes_.push_back({api.reply_handle(), index});

  if (fetched_) {
    serve(api);
    return;
  }
  if (!fetching_) {
    fetching_ = true;
    api.http_get(url_, [this, &api](bool ok, util::Bytes body) {
      fetching_ = false;
      if (!ok) {
        for (const Stripe& stripe : stripes_) {
          api.send_to(stripe.handle, util::to_bytes("ERR fetch failed"));
        }
        stripes_.clear();
        return;
      }
      fetched_ = true;
      body_ = std::move(body);
      serve(api);
    });
  }
}

void MultipathFetchFunction::serve(core::HostApi& api) {
  // Emit each registered stripe's chunks on its own channel. Chunk i goes
  // to stripe (i % stripe_count): round-robin striping, so every circuit
  // carries an equal share of the body concurrently.
  const std::size_t total_chunks =
      (body_.size() + kMultipathChunk - 1) / kMultipathChunk;
  for (const Stripe& stripe : stripes_) {
    for (std::size_t chunk = static_cast<std::size_t>(stripe.index);
         chunk < total_chunks || (total_chunks == 0 && stripe.index == 0);
         chunk += static_cast<std::size_t>(stripe_count_)) {
      const std::size_t begin = chunk * kMultipathChunk;
      const std::size_t len = std::min(kMultipathChunk, body_.size() - begin);
      util::Writer w;
      w.u32(static_cast<std::uint32_t>(chunk));
      w.u32(static_cast<std::uint32_t>(total_chunks));
      w.raw(util::ByteView(body_.data() + begin, len));
      api.send_to(stripe.handle, w.data());
      if (total_chunks == 0) break;
    }
  }
  stripes_.clear();
}

core::FunctionManifest multipath_manifest() {
  core::FunctionManifest m;
  m.name = "multipath-fetch";
  m.required = {sb::Syscall::NetConnect, sb::Syscall::Clock};
  m.resources.memory_bytes = 48 << 20;
  m.resources.cpu_instructions = 200'000'000;
  m.resources.disk_bytes = 1 << 20;
  m.resources.network_bytes = 1ull << 30;
  return m;
}

void register_multipath(core::NativeRegistry& registry) {
  registry.add("multipath-fetch",
               [] { return std::make_unique<MultipathFetchFunction>(); });
}

void MultipathFetcher::fetch(const std::string& exit_box, const std::string& url,
                             std::function<double()> now, DoneFn done) {
  // The stripes' output handlers (owned by the connections, which
  // BentoClient::live_ anchors) hold the only lasting references to this
  // state; it must never point back at a connection or nothing would die.
  struct State {
    std::map<std::uint32_t, util::Bytes> chunks;
    std::vector<std::size_t> per_path_bytes;
    std::uint32_t total_chunks = 0;
    bool total_known = false;
    double started = 0;
    bool finished = false;
    util::Bytes token;
    DoneFn done;
    std::function<double()> now;
    int circuits = 0;
    std::vector<std::string> used_relays;  // keep stripes path-disjoint
  };
  auto state = std::make_shared<State>();
  state->per_path_bytes.assign(static_cast<std::size_t>(circuits_), 0);
  state->done = std::move(done);
  state->now = std::move(now);
  state->circuits = circuits_;

  auto finish = [state](bool ok) {
    if (state->finished) return;
    state->finished = true;
    Result result;
    result.ok = ok;
    result.seconds = state->now() - state->started;
    result.per_path_bytes = state->per_path_bytes;
    if (ok) {
      for (std::uint32_t i = 0; i < state->total_chunks; ++i) {
        util::append(result.body, state->chunks[i]);
      }
    }
    state->done(std::move(result));
  };

  auto attach_output = [state, finish, url](int path_index,
                                            std::shared_ptr<core::BentoConnection> conn) {
    conn->set_output_handler([state, finish, path_index](util::Bytes out) {
      if (state->finished) return;
      if (out.size() >= 3 && out[0] == 'E' && out[1] == 'R' && out[2] == 'R') {
        finish(false);
        return;
      }
      try {
        util::Reader r(out);
        const std::uint32_t seq = r.u32();
        const std::uint32_t total = r.u32();
        util::Bytes data = r.raw(r.remaining());
        state->per_path_bytes[static_cast<std::size_t>(path_index)] += data.size();
        state->chunks[seq] = std::move(data);
        state->total_chunks = total;
        state->total_known = true;
        if (state->chunks.size() == total) finish(true);
        if (total == 0) finish(true);
      } catch (const util::ParseError&) {
        finish(false);
      }
    });
  };

  // Path 0 deploys; the rest share the invocation token over their own
  // circuits (the token is exactly the shareable capability of §5.3).
  bento_.connect(exit_box, [this, state, finish, attach_output, url,
                            exit_box](std::shared_ptr<core::BentoConnection> conn) {
    if (conn == nullptr) {
      finish(false);
      return;
    }
    conn->install(multipath_manifest(), "", "multipath-fetch", {},
                  [this, state, finish, attach_output, url, exit_box, conn](
                      std::optional<core::TokenPair> tokens, std::string) {
      if (!tokens.has_value()) {
        finish(false);
        return;
      }
      state->token = tokens->invocation.bytes();
      state->started = state->now();
      attach_output(0, conn);
      for (const auto& fp : conn->path_fingerprints()) {
        if (fp != exit_box) state->used_relays.push_back(fp);
      }
      conn->invoke(state->token, util::to_bytes("FETCH " + url + " 0 " +
                                                std::to_string(state->circuits)));
      // Remaining stripes over their own, relay-disjoint circuits
      // (mTor-style: disjoint paths, common exit). Opened one after another
      // so each sees the relays its predecessors used. The stored function
      // captures itself weakly: the pending connect callback (transient)
      // carries the strong reference, so the chain stays alive exactly until
      // the last path opens.
      auto open_path = std::make_shared<std::function<void(int)>>();
      std::weak_ptr<std::function<void(int)>> weak_open = open_path;
      *open_path = [this, state, finish, attach_output, url, exit_box,
                    weak_open](int path) {
        if (path >= state->circuits) return;
        bento_.connect(
            exit_box, state->used_relays,
            [state, finish, attach_output, url, path, exit_box,
             next = weak_open.lock()](std::shared_ptr<core::BentoConnection> c2) {
              if (c2 == nullptr) {
                finish(false);
                return;
              }
              for (const auto& fp : c2->path_fingerprints()) {
                if (fp != exit_box) state->used_relays.push_back(fp);
              }
              attach_output(path, c2);
              c2->invoke(state->token,
                         util::to_bytes("FETCH " + url + " " + std::to_string(path) +
                                        " " + std::to_string(state->circuits)));
              if (next != nullptr) (*next)(path + 1);
            });
      };
      (*open_path)(1);
    });
  });
}

}  // namespace bento::functions
