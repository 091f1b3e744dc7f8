#include "core/client.hpp"

#include <algorithm>

#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace bento::core {

namespace {
constexpr char kComponent[] = "bento.client";
}

std::vector<std::string> BentoClient::find_boxes(const tor::Consensus& consensus) {
  std::vector<std::string> out;
  for (const auto& relay : consensus.relays) {
    if (relay.flags.bento) out.push_back(relay.fingerprint());
  }
  return out;
}

std::optional<MiddleboxPolicy> BentoClient::advertised_policy(
    const tor::RelayDescriptor& descriptor) {
  if (descriptor.bento_policy.empty()) return std::nullopt;
  try {
    return MiddleboxPolicy::deserialize(descriptor.bento_policy);
  } catch (const util::ParseError&) {
    return std::nullopt;
  }
}

void BentoClient::connect(const std::string& box_fingerprint,
                          std::function<void(std::shared_ptr<BentoConnection>)> done) {
  connect(box_fingerprint, {}, std::move(done));
}

void BentoClient::connect(const std::string& box_fingerprint,
                          std::vector<std::string> excluded_relays,
                          std::function<void(std::shared_ptr<BentoConnection>)> done) {
  const tor::RelayDescriptor* box = proxy_.consensus().find(box_fingerprint);
  if (box == nullptr) {
    done(nullptr);
    return;
  }
  const tor::Endpoint bento_endpoint{box->addr, config_.bento_port};

  prune_closed();  // reap anchors for connections that have since died
  auto conn = std::shared_ptr<BentoConnection>(new BentoConnection());
  conn->proxy_ = &proxy_;
  conn->config_ = config_;
  conn->box_ = box_fingerprint;
  if (const auto policy = advertised_policy(*box)) {
    // The box sends no message larger than a function may hold, so no
    // longer frame is legitimate (the cap the box puts on its clients).
    conn->framer_ = StreamFramer(policy->max_per_function.memory_bytes);
  }
  live_.push_back(conn);

  tor::PathConstraints constraints;
  constraints.last_hop = box_fingerprint;
  constraints.excluded = std::move(excluded_relays);
  auto done_shared =
      std::make_shared<std::function<void(std::shared_ptr<BentoConnection>)>>(
          std::move(done));
  auto answered = std::make_shared<bool>(false);
  // Trace origin: the ClientConnect span covers circuit build + Bento
  // stream open, ending at the connected/refused/failed callback. It stays
  // current across build_circuit() so the CREATE cells inherit the context.
  obs::SpanScope connect_span(obs::SpanScope::kRoot, obs::Stage::ClientConnect);
  const std::uint32_t span = connect_span.detach();
  // The build callback fires exactly once and is destroyed afterwards, so
  // its strong `conn` is transient. The stream callbacks it installs are
  // another matter: they live inside the circuit for as long as the circuit
  // does, so they capture weakly — otherwise a closed connection could never
  // be freed until its circuit object went away (the same self-capture leak
  // class spawn()/upload() fixed in their pending_ handlers).
  std::weak_ptr<BentoConnection> weak = conn;
  proxy_.build_circuit(
      constraints,
      [conn, weak, bento_endpoint, done_shared, answered, span](tor::CircuitOrigin* circ) {
    if (circ == nullptr) {
      conn->closed_ = true;  // never opened; let prune_closed() reap it
      *answered = true;
      obs::end_span(span, obs::Stage::ClientConnect, /*ok=*/false);
      (*done_shared)(nullptr);
      return;
    }
    conn->circuit_ = circ;
    if (util::log_enabled(util::LogLevel::Debug)) {
      std::string path_desc;
      for (const auto& hop : circ->path()) path_desc += hop.nickname + " ";
      util::log_debug(kComponent, "circuit path: ", path_desc);
    }
    tor::Stream::Callbacks cbs;
    cbs.on_data = [weak](util::ByteView d) {
      if (auto self = weak.lock()) self->on_stream_data(d);
    };
    cbs.on_end = [weak, done_shared, answered, span] {
      if (auto self = weak.lock()) self->on_stream_end();
      if (!*answered) {  // refused before CONNECTED (no Bento server there)
        *answered = true;
        obs::end_span(span, obs::Stage::ClientConnect, /*ok=*/false);
        (*done_shared)(nullptr);
      }
    };
    tor::Stream* stream = circ->open_stream(bento_endpoint, std::move(cbs));
    conn->stream_ = stream;
    stream->set_on_connected([weak, done_shared, answered, span] {
      auto self = weak.lock();
      *answered = true;
      obs::end_span(span, obs::Stage::ClientConnect, /*ok=*/self != nullptr);
      (*done_shared)(std::move(self));
    });
  }, kBuildAttempts);
}

void BentoClient::prune_closed() {
  live_.erase(std::remove_if(live_.begin(), live_.end(),
                             [](const std::shared_ptr<BentoConnection>& c) {
                               return c->closed_;
                             }),
              live_.end());
}

std::vector<std::string> BentoConnection::path_fingerprints() const {
  std::vector<std::string> out;
  if (circuit_ != nullptr) {
    for (const auto& hop : circuit_->path()) out.push_back(hop.fingerprint());
  }
  return out;
}

void BentoConnection::send_msg(const Message& msg) {
  if (stream_ == nullptr) return;
  stream_->send(StreamFramer::frame(msg));
}

void BentoConnection::expect(std::function<void(const Message&)> handler) {
  pending_.push_back(std::move(handler));
}

void BentoConnection::on_stream_data(util::ByteView data) {
  raw_bytes_ += data.size();
  framer_.append(data);
  // The stream callback holds a strong reference, so framer_ outlives every
  // handler this loop runs.
  for (;;) {
    std::optional<Message> next;
    try {
      next = framer_.next();
    } catch (const util::ParseError& e) {
      reject_stream(e.what());
      return;
    }
    if (!next.has_value()) return;
    const Message& msg = *next;
    if (msg.type == MsgType::Output) {
      if (invoke_span_ != 0) {
        // First Output after an invoke = the client-observed response.
        obs::end_span(invoke_span_, obs::Stage::ClientInvoke);
        invoke_span_ = 0;
      }
      if (output_) {
        // Run a copy so the handler may clear or replace itself (breaking a
        // keep-alive reference cycle, say) without destroying the closure
        // it is executing from.
        auto handler = output_;
        handler(util::Bytes(msg.blob.begin(), msg.blob.end()));
      }
      continue;
    }
    if (pending_.empty()) {
      util::log_warn(kComponent, "unexpected reply type ",
                     static_cast<int>(msg.type));
      continue;
    }
    auto handler = std::move(pending_.front());
    pending_.pop_front();
    handler(msg);
  }
}

void BentoConnection::on_stream_end() {
  stream_ = nullptr;
  closed_ = true;  // everything rides the stream; a dead stream is a dead conn
  fail_pending("connection closed");
}

void BentoConnection::reject_stream(const std::string& why) {
  // Registered on first use, so runs without a rejection keep their metric set.
  static obs::Counter rejected = obs::registry().counter("bento.client.rejected");
  rejected.inc();
  util::log_info(kComponent, box_, ": rejecting stream: ", why);
  closed_ = true;
  fail_pending("malformed frame: " + why);
  close();
}

void BentoConnection::fail_pending(const std::string& why) {
  if (invoke_span_ != 0) {
    // Circuit torn down mid-request: the invoke span ends as a failure so
    // the trace shows an orphaned request, not a silent hole.
    obs::end_span(invoke_span_, obs::Stage::ClientInvoke, /*ok=*/false);
    invoke_span_ = 0;
  }
  // Fail anything still waiting.
  while (!pending_.empty()) {
    auto handler = std::move(pending_.front());
    pending_.pop_front();
    Message err;
    err.type = MsgType::Error;
    err.text = why;
    handler(err);
  }
  if (on_close_) {
    auto fn = std::move(on_close_);
    on_close_ = nullptr;
    fn();
  }
}

void BentoConnection::get_policy(PolicyFn done) {
  Message msg;
  msg.type = MsgType::GetPolicy;
  expect([done = std::move(done)](const Message& reply) {
    if (reply.type != MsgType::PolicyReply) {
      done(std::nullopt);
      return;
    }
    try {
      done(MiddleboxPolicy::deserialize(reply.blob));
    } catch (const util::ParseError&) {
      done(std::nullopt);
    }
  });
  send_msg(msg);
}

void BentoConnection::spawn(const std::string& image, SpawnFn done) {
  obs::SpanScope span(obs::SpanScope::kRoot, obs::Stage::ClientSpawn);
  const std::uint32_t span_id = span.detach();
  Message msg;
  msg.type = MsgType::Spawn;
  msg.text = image;
  spawned_image_ = image;
  const bool sgx = image == kImagePythonOpSgx;
  util::Bytes hello;
  if (sgx) {
    hello = tee::SecureChannel::client_hello(channel_eph_, proxy_->rng()).to_bytes();
    msg.blob2 = hello;
  }
  // Weak capture: this handler sits in our own `pending_` queue, so holding a
  // shared_ptr to ourselves would be a reference cycle — and a reply lost to a
  // faulty network (no reply, no stream end) would leak the connection.
  std::weak_ptr<BentoConnection> weak = shared_from_this();
  expect([weak, sgx, span_id, done = std::move(done)](const Message& reply) {
    auto self = weak.lock();
    obs::end_span(span_id, obs::Stage::ClientSpawn,
                  self != nullptr && reply.type == MsgType::SpawnReply);
    if (self == nullptr) {
      done(false, "connection closed");
      return;
    }
    if (reply.type != MsgType::SpawnReply) {
      done(false, reply.text.empty() ? "spawn failed" : std::string(reply.text));
      return;
    }
    self->container_id_ = reply.container_id;
    if (!sgx) {
      done(true, "");
      return;
    }
    // Attest: verify the stapled IAS report and the channel binding.
    try {
      const auto accept = tee::SecureChannel::Accept::from_bytes(reply.blob2);
      const auto report = tee::AttestationReport::deserialize(reply.blob);
      if (!report.verify(self->config_.ias_public_key)) {
        done(false, "attestation: bad IAS report signature");
        return;
      }
      if (report.quote.serialize() != accept.quote.serialize()) {
        done(false, "attestation: report/quote mismatch");
        return;
      }
      if (report.tcb_status != tee::TcbStatus::UpToDate) {
        done(false, "attestation: TCB out of date");
        return;
      }
      auto channel = tee::SecureChannel::client_finish(
          self->channel_eph_, accept, self->config_.expected_runtime);
      if (!channel.has_value()) {
        done(false, "attestation: channel binding/measurement mismatch");
        return;
      }
      self->channel_ = std::move(channel);
      done(true, "");
    } catch (const std::exception& e) {
      done(false, std::string("attestation: ") + e.what());
    }
  });
  send_msg(msg);
}

void BentoConnection::upload(const FunctionManifest& manifest,
                             const std::string& source, const std::string& native,
                             util::ByteView args, UploadFn done) {
  UploadBody body;
  body.manifest = manifest.serialize();
  body.source = source;
  body.native = native;
  body.args = util::Bytes(args.begin(), args.end());

  obs::SpanScope span(obs::SpanScope::kRoot, obs::Stage::ClientUpload,
                      static_cast<std::uint32_t>(container_id_));
  const std::uint32_t span_id = span.detach();
  util::Bytes body_bytes = body.serialize();
  if (channel_.has_value()) body_bytes = channel_->seal(body_bytes);
  Message msg;
  msg.type = MsgType::Upload;
  msg.container_id = container_id_;
  msg.blob = body_bytes;

  // Weak capture for the same reason as spawn(): the handler lives in our own
  // `pending_` queue, and a self-capture would leak the connection if the
  // reply never arrives.
  std::weak_ptr<BentoConnection> weak = shared_from_this();
  expect([weak, span_id, done = std::move(done)](const Message& reply) {
    auto self = weak.lock();
    obs::end_span(span_id, obs::Stage::ClientUpload,
                  self != nullptr && reply.type == MsgType::UploadReply);
    if (self == nullptr) {
      done(std::nullopt, "connection closed");
      return;
    }
    if (reply.type != MsgType::UploadReply) {
      done(std::nullopt,
           reply.text.empty() ? "upload failed" : std::string(reply.text));
      return;
    }
    util::ByteView body_bytes = reply.blob;
    std::optional<util::Bytes> opened;
    if (self->channel_.has_value()) {
      opened = self->channel_->open(body_bytes);
      if (!opened.has_value()) {
        done(std::nullopt, "upload reply failed channel authentication");
        return;
      }
      body_bytes = *opened;
    }
    try {
      const auto reply_body = UploadReplyBody::deserialize(body_bytes);
      TokenPair tokens;
      tokens.invocation = Token::from_bytes(reply_body.invocation_token);
      tokens.shutdown = Token::from_bytes(reply_body.shutdown_token);
      done(tokens, "");
    } catch (const std::exception& e) {
      done(std::nullopt, std::string("bad upload reply: ") + e.what());
    }
  });
  send_msg(msg);
}

void BentoConnection::install(const FunctionManifest& manifest,
                              const std::string& source, const std::string& native,
                              util::ByteView args, UploadFn done) {
  // The upload leaves from the spawn reply's handler, whose trace context is
  // the box's; it goes out under the caller's instead, so spawn and upload
  // are two requests of whoever called install() (two roots at top level).
  const obs::SpanContext caller = obs::current_span();
  // Weak capture for the same reason as spawn(): the handler lives in our own
  // `pending_` queue.
  std::weak_ptr<BentoConnection> weak = shared_from_this();
  spawn(manifest.image,
        [weak, caller, manifest, source, native,
         args = util::Bytes(args.begin(), args.end()),
         done = std::move(done)](bool ok, std::string error) mutable {
          auto self = weak.lock();
          if (!ok || self == nullptr) {
            done(std::nullopt, ok ? "connection closed" : std::move(error));
            return;
          }
          const obs::SpanContext reply = obs::current_span();
          obs::set_current_span(caller);
          self->upload(manifest, source, native, args, std::move(done));
          obs::set_current_span(reply);
        });
}

void BentoConnection::invoke(util::ByteView invocation_token, util::ByteView payload) {
  // A newer invoke supersedes an unanswered one: close the old span at the
  // point it stopped being the request we are waiting on.
  if (invoke_span_ != 0) {
    obs::end_span(invoke_span_, obs::Stage::ClientInvoke);
    invoke_span_ = 0;
  }
  obs::SpanScope span(obs::SpanScope::kRoot, obs::Stage::ClientInvoke,
                      static_cast<std::uint32_t>(container_id_));
  invoke_span_ = span.detach();
  Message msg;
  msg.type = MsgType::Invoke;
  msg.token = invocation_token;
  msg.blob = payload;
  send_msg(msg);
}

void BentoConnection::shutdown(util::ByteView shutdown_token, SimpleFn done) {
  obs::SpanScope span(obs::SpanScope::kRoot, obs::Stage::ClientShutdown,
                      static_cast<std::uint32_t>(container_id_));
  const std::uint32_t span_id = span.detach();
  Message msg;
  msg.type = MsgType::Shutdown;
  msg.token = shutdown_token;
  expect([span_id, done = std::move(done)](const Message& reply) {
    obs::end_span(span_id, obs::Stage::ClientShutdown, reply.type == MsgType::Ok);
    done(reply.type == MsgType::Ok);
  });
  send_msg(msg);
}

void BentoConnection::close() {
  closed_ = true;
  if (stream_ != nullptr) {
    stream_->end();
    stream_ = nullptr;
  }
  if (circuit_ != nullptr && !circuit_->destroyed()) {
    tor::CircuitOrigin* circ = circuit_;
    circuit_ = nullptr;
    circ->destroy();
    proxy_->forget(circ);
  }
}

void BentoClient::invoke_reliable(const std::string& box_fingerprint,
                                  util::Bytes invocation_token, util::Bytes payload,
                                  ReliableInvokeFn done) {
  struct State {
    BentoClient* client = nullptr;
    std::string box;
    util::Bytes token;
    util::Bytes payload;
    ReliableInvokeFn done;
    int attempt = 0;
    bool settled = false;
    // Bumped whenever the current attempt is abandoned so stale timers and
    // stream callbacks from it become no-ops.
    std::uint64_t epoch = 0;
    std::vector<std::string> excluded;
    std::shared_ptr<BentoConnection> conn;
    // Stored on the state (callbacks capture only `st`) so nothing captures
    // a shared_ptr to itself — LeakSanitizer would flag that cycle.
    std::function<void(std::shared_ptr<State>)> run;
    std::function<void(std::shared_ptr<State>)> retry;
  };
  auto st = std::make_shared<State>();
  st->client = this;
  st->box = box_fingerprint;
  st->token = std::move(invocation_token);
  st->payload = std::move(payload);
  st->done = std::move(done);

  // Abandon the live attempt (if any) and either give up or back off and go
  // again. `done` fires exactly once: settled guards every path.
  st->retry = [](std::shared_ptr<State> st) {
    if (st->settled) return;
    ++st->epoch;
    if (st->conn) {
      auto conn = std::move(st->conn);
      st->conn = nullptr;
      conn->set_on_close(nullptr);
      conn->set_output_handler(nullptr);
      conn->close();
    }
    if (st->attempt >= kMaxAttempts) {
      st->settled = true;
      obs::trace(obs::Ev::ClientRetry, static_cast<std::uint32_t>(st->attempt), 0,
                 /*ok=*/false);  // ok=false: giving up
      util::log_warn(kComponent, "invoke failed after ", st->attempt, " attempts");
      auto cb = std::move(st->done);
      cb(false, {}, st->attempt);
      return;
    }
    // The hop the last failed build died at is worth avoiding; the box
    // itself must stay reachable on every path.
    const std::string& bad = st->client->proxy_.last_failed_hop();
    if (!bad.empty() && bad != st->box &&
        std::find(st->excluded.begin(), st->excluded.end(), bad) ==
            st->excluded.end()) {
      st->excluded.push_back(bad);
    }
    double backoff_s = kBackoffBase.to_seconds();
    for (int i = 1; i < st->attempt && backoff_s < kBackoffCap.to_seconds(); ++i) {
      backoff_s *= 2.0;
    }
    backoff_s = std::min(backoff_s, kBackoffCap.to_seconds());
    backoff_s *= 1.0 + kRetryJitter * (2.0 * st->client->proxy_.rng().uniform01() - 1.0);
    const auto backoff = util::Duration::micros(
        static_cast<std::int64_t>(backoff_s * 1e6));
    obs::trace(obs::Ev::ClientRetry, static_cast<std::uint32_t>(st->attempt),
               static_cast<std::uint64_t>(backoff.count_micros() / 1000),
               /*ok=*/true);  // ok=true: will retry
    util::log_info(kComponent, "invoke attempt ", st->attempt, " failed; retrying in ",
                   backoff.count_micros() / 1000, " ms");
    st->client->proxy_.simulator().after(backoff, [st] {
      if (!st->settled) st->run(st);
    });
  };

  st->run = [](std::shared_ptr<State> st) {
    ++st->attempt;
    const std::uint64_t epoch = ++st->epoch;
    st->client->connect(st->box, st->excluded,
                        [st, epoch](std::shared_ptr<BentoConnection> conn) {
      if (st->settled || epoch != st->epoch) return;
      if (conn == nullptr) {
        st->retry(st);
        return;
      }
      st->conn = conn;
      conn->set_output_handler([st, epoch](util::Bytes out) {
        if (st->settled || epoch != st->epoch) return;
        st->settled = true;
        auto conn = std::move(st->conn);
        st->conn = nullptr;
        if (conn) {
          conn->set_on_close(nullptr);
          conn->set_output_handler(nullptr);
          conn->close();
        }
        auto cb = std::move(st->done);
        cb(true, std::move(out), st->attempt);
      });
      conn->set_on_close([st, epoch] {
        if (st->settled || epoch != st->epoch) return;
        st->conn = nullptr;  // already dead; nothing to close
        st->retry(st);
      });
      conn->invoke(st->token, st->payload);
      st->client->proxy_.simulator().after(kRequestTimeout, [st, epoch] {
        if (st->settled || epoch != st->epoch) return;
        util::log_warn(kComponent, "invoke attempt ", st->attempt, " timed out");
        st->retry(st);
      });
    });
  };
  st->run(st);
}

}  // namespace bento::core
