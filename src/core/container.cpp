#include "core/container.hpp"

#include <algorithm>
#include <vector>

#include "core/client.hpp"
#include "core/server.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "script/natives.hpp"
#include "util/log.hpp"
#include "util/simclock.hpp"
#include "util/zlite.hpp"

namespace bento::core {

namespace {
constexpr char kComponent[] = "bento.container";

/// A clearnet fetch collects its body in blocks of this size (or of one
/// larger chunk) and joins them once, at the end, into one buffer of
/// exactly the body's size. A block stays below glibc's default mmap
/// threshold (128 KiB); a vector doubling its way up to the page size
/// would instead leave a trail of page-sized frees that the allocator
/// trims and faults back in.
constexpr std::size_t kFetchBlock = std::size_t{64} << 10;
}  // namespace

Container::Container(BentoServer& server, std::uint64_t id, std::string image,
                     util::Rng rng)
    : server_(server), id_(id), image_(std::move(image)), rng_(rng) {
  if (image_ == kImagePythonOpSgx) {
    conclave_ = std::make_unique<tee::Conclave>(
        server_.platform(), server_.epc(), BentoServer::runtime_image(),
        "bento-" + std::to_string(id_));
    fs_protect_ = std::make_unique<tee::FsProtect>(rng_);
  }
}

Container::~Container() { *alive_ = false; }

void Container::install(const FunctionManifest& manifest, const UploadBody& body,
                        tor::Stream* uploader,
                        std::shared_ptr<const script::Program> program) {
  manifest_ = manifest;
  // Enforced filter = manifest ∩ node policy; admit() already verified the
  // manifest fits, so constraining to the manifest alone implements the
  // paper's "even if the middlebox policy allowed for more".
  filter_ = manifest.filter().intersect(server_.policy().allowed);
  resources_ = std::make_unique<sandbox::ResourceAccountant>(manifest.resources,
                                                             &server_.aggregate());
  std::unique_ptr<sandbox::VfsBackend> backend;
  if (server_.persistent_store()) {
    backend = mount_store(manifest.name);
  } else {
    std::unique_ptr<sandbox::MemoryBackend> memory = std::move(fs_protect_);
    if (memory == nullptr) memory = std::make_unique<sandbox::MemoryBackend>();
    memory_ = memory.get();
    backend = std::move(memory);
  }
  // Replayed files get charged exactly like fresh writes (throws — and
  // fails the install — if the recovered state busts the disk budget).
  vfs_ = std::make_unique<sandbox::Vfs>(std::move(backend), *resources_);
  schedule_store_maintenance();
  netfilter_ =
      sandbox::NetFilter::from_exit_policy(server_.router().descriptor().exit_policy);
  stem_ = std::make_unique<StemSession>(server_.stem_proxy(), server_.directory(),
                                        filter_);
  tokens_ = TokenPair::generate(rng_);
  bound_stream_ = uploader;

  if (!body.native.empty()) {
    function_ = server_.natives().create(body.native);
  } else {
    script::InterpreterOptions options;
    options.step_hook = [this](std::uint64_t steps) { resources_->charge_cpu(steps); };
    options.memory_hook = [this](std::size_t bytes) { update_memory(bytes); };
    options.print_hook = [this](const std::string& line) { log(line); };
    function_ = std::make_unique<ScriptFunction>(std::move(program), std::move(options));
  }
  // on_install runs guarded: a function that dies during install fails the
  // upload (the caller observes dead()).
  run_guarded([&] { function_->on_install(*this, body.args); });
  if (dead_) throw std::runtime_error("function died during install: " + death_reason_);
  fn_stats_.installed_at_us = util::sim_now_micros();
}

void Container::handle_invoke(tor::Stream* from, util::ByteView payload) {
  if (dead_ || function_ == nullptr) return;
  fn_stats_.invokes += 1;
  fn_stats_.bytes_in += payload.size();
  bound_stream_ = from;
  // The payload's one owned copy: it outlives the framer buffer it came
  // from (across the ecall delay) and moves on into the function.
  util::Bytes copy(payload.begin(), payload.end());
  if (conclave_ != nullptr) {
    // Enclave transition costs (§7.3) are modeled as a small scheduling
    // delay in and out of the conclave. The fn.dispatch span measures
    // exactly that transition: it opens here and closes when the deferred
    // event fires inside the conclave, so bentotrace attributes the
    // kEcallOverhead to "conclave dispatch" rather than to function compute.
    static obs::Counter ecalls = obs::registry().counter("tee.ecalls");
    ecalls.inc();
    obs::SpanScope dispatch(obs::Stage::FnDispatch, static_cast<std::uint32_t>(id_));
    const std::uint32_t dispatch_span = dispatch.detach();
    std::weak_ptr<bool> alive = alive_;
    server_.simulator().after(kEcallOverhead, [this, alive, dispatch_span,
                                               copy = std::move(copy)]() mutable {
      obs::end_span(dispatch_span, obs::Stage::FnDispatch);
      if (alive.expired() || dead_ || function_ == nullptr) return;
      obs::SpanScope exec(obs::Stage::FnExecute, static_cast<std::uint32_t>(id_));
      run_guarded([&] { function_->on_message(*this, std::move(copy)); });
      exec.set_ok(!dead_);
    });
    return;
  }
  obs::SpanScope exec(obs::Stage::FnExecute, static_cast<std::uint32_t>(id_));
  run_guarded([&] { function_->on_message(*this, std::move(copy)); });
  exec.set_ok(!dead_);
}

void Container::graceful_shutdown() {
  if (function_ != nullptr && !dead_) {
    run_guarded([&] { function_->on_shutdown(*this); });
  }
  dead_ = true;
}

void Container::on_stream_closed(tor::Stream* stream) {
  if (bound_stream_ == stream) bound_stream_ = nullptr;
  for (auto it = reply_handles_.begin(); it != reply_handles_.end();) {
    if (it->second == stream) {
      it = reply_handles_.erase(it);
    } else {
      ++it;
    }
  }
}

util::Bytes* Container::stored_bytes(const std::string& path) const {
  return memory_ != nullptr ? memory_->stored(sandbox::chroot_normalize(path)) : nullptr;
}

std::size_t Container::memory_bytes() const {
  std::size_t total = resources_ ? resources_->usage().memory_bytes : 0;
  if (conclave_ != nullptr) total += tee::Conclave::kBaselineOverheadBytes;
  return total;
}

template <typename Fn>
void Container::run_guarded(Fn&& fn) {
  if (in_function_) {  // re-entrant callback while already inside: run plain
    fn();
    return;
  }
  in_function_ = true;
  try {
    fn();
  } catch (const sandbox::ResourceExceeded& e) {
    kill(std::string("resource limit: ") + e.what());
  } catch (const sandbox::SyscallDenied& e) {
    kill(std::string("policy violation: ") + e.what());
  } catch (const script::ScriptError& e) {
    kill(std::string("script error: ") + e.what());
  } catch (const script::SyntaxError& e) {
    kill(std::string("syntax error: ") + e.what());
  } catch (const std::exception& e) {
    kill(std::string("function fault: ") + e.what());
  }
  in_function_ = false;
}

void Container::kill(const std::string& reason) {
  if (dead_) return;
  dead_ = true;
  death_reason_ = reason;
  util::log_info(kComponent, "container ", id_, " killed: ", reason);
  if (bound_stream_ != nullptr) {
    Message err;
    err.type = MsgType::Error;
    err.container_id = id_;
    err.text = reason;
    server_.send_to_stream(bound_stream_, err);
  }
  server_.container_died(id_, reason);
}

void Container::update_memory(std::size_t sandbox_estimate) {
  resources_->charge_memory(sandbox_estimate);
  if (conclave_ != nullptr) conclave_->set_memory_bytes(sandbox_estimate);
}

std::unique_ptr<sandbox::VfsBackend> Container::mount_store(const std::string& name) {
  // The chroot sits on the sealed blob store of the function's name. A
  // volume is claimed by the live container whose store is mounted on it,
  // so the server's container table is the claim set: removal and crash()
  // release a claim by dropping the container. A second live function under
  // the same name gets a uniquified volume ("name#2"), durable only under
  // that exact suffix — acceptable for replicas, which rebuild from their
  // primary anyway.
  const auto claimed = [this](const std::string& key) {
    const store::Volume* volume = server_.volumes().find(key);
    if (volume == nullptr) return false;
    for (const Container* other : server_.containers()) {
      if (other->store_ != nullptr && &other->store_->volume() == volume) return true;
    }
    return false;
  };
  std::string key = name;
  for (std::uint64_t n = 2; claimed(key); ++n) key = name + "#" + std::to_string(n);
  std::unique_ptr<store::Sealer> sealer =
      server_.config().sgx_available
          ? tee::make_store_sealer(server_.platform(), BentoServer::runtime_measurement(),
                                   key)
          : store::make_null_sealer();
  store_ = std::make_unique<store::BlobStore>(server_.volumes().open(key), std::move(sealer));
  // The mount is the one recovery: whatever the volume holds comes back
  // here, a crash's torn tail truncated, and a log sealed under another key
  // throws StoreError, which fails this install only.
  if (store_->volume().total_bytes() > 0) store_->replay();
  return std::make_unique<sandbox::StoreBackend>(store_.get());
}

void Container::schedule_store_maintenance() {
  // Background compaction rides the simulator like any other housekeeping —
  // but armed by mutations (fs_write, fs_remove) rather than a free-running
  // period, so an idle store leaves the event queue empty and world.run()
  // quiesces. One tick is pending at a time; the weak liveness token keeps a
  // doomed container's tick from touching freed state.
  if (compaction_pending_ || store_ == nullptr || !store_->wants_compaction()) {
    return;
  }
  compaction_pending_ = true;
  constexpr util::Duration kStoreMaintenanceDelay = util::Duration::millis(250);
  server_.simulator().after(
      kStoreMaintenanceDelay,
      [this, alive = std::weak_ptr<bool>(alive_)] {
        const std::shared_ptr<bool> lock = alive.lock();
        if (lock == nullptr || !*lock || store_ == nullptr) return;
        compaction_pending_ = false;
        if (store_->wants_compaction()) store_->compact();
      });
}

// ---- HostApi ----

void Container::send(util::ByteView payload) {
  if (bound_stream_ == nullptr) return;
  resources_->charge_network(payload.size());
  fn_stats_.bytes_out += payload.size();
  Message out;
  out.type = MsgType::Output;
  out.container_id = id_;
  out.blob = payload;
  server_.send_to_stream(bound_stream_, out);
}

std::uint64_t Container::reply_handle() {
  if (bound_stream_ == nullptr) return 0;
  for (const auto& [handle, stream] : reply_handles_) {
    if (stream == bound_stream_) return handle;
  }
  const std::uint64_t handle = next_reply_handle_++;
  reply_handles_[handle] = bound_stream_;
  return handle;
}

void Container::send_to(std::uint64_t handle, util::ByteView payload) {
  auto it = reply_handles_.find(handle);
  if (it == reply_handles_.end()) return;
  resources_->charge_network(payload.size());
  fn_stats_.bytes_out += payload.size();
  Message out;
  out.type = MsgType::Output;
  out.container_id = id_;
  out.blob = payload;
  server_.send_to_stream(it->second, out);
}

void Container::log(const std::string& line) {
  util::log_info(kComponent, "fn[", manifest_.name, "@", id_, "]: ", line);
}

void Container::fs_write(const std::string& path, util::ByteView data) {
  filter_.check(sandbox::Syscall::FsWrite);
  vfs_->write(path, data);
  schedule_store_maintenance();
}

std::optional<util::Bytes> Container::fs_read(const std::string& path) {
  filter_.check(sandbox::Syscall::FsRead);
  return vfs_->read(path);
}

bool Container::fs_remove(const std::string& path) {
  filter_.check(sandbox::Syscall::FsDelete);
  const bool removed = vfs_->remove(path);
  if (removed) schedule_store_maintenance();
  return removed;
}

std::vector<std::string> Container::fs_list() {
  filter_.check(sandbox::Syscall::FsRead);
  return vfs_->list();
}

void Container::http_get(const std::string& url, HttpCallback done) {
  filter_.check(sandbox::Syscall::NetConnect);
  const ParsedUrl parsed = parse_url(url);
  if (!netfilter_.check(parsed.endpoint)) {
    throw sandbox::SyscallDenied(sandbox::Syscall::NetConnect);
  }
  resources_->open_connection();

  struct FetchState {
    std::vector<util::Bytes> blocks;  // each reserved once, never regrown
    std::size_t size = 0;
    std::uint64_t conn = 0;
  };
  auto state = std::make_shared<FetchState>();
  auto done_shared = std::make_shared<HttpCallback>(std::move(done));

  std::weak_ptr<bool> alive = alive_;
  tor::TcpClient::Callbacks cbs;
  cbs.on_open = [this, alive, state, parsed] {
    if (alive.expired()) return;
    // The enclaved fetch stack (Graphene + CPython + requests) takes
    // noticeably longer to come up than a native one.
    const util::Duration startup =
        conclave_ != nullptr ? kSgxFetchStackDelay : util::Duration::micros(0);
    server_.simulator().after(startup, [this, alive, state, parsed] {
      if (alive.expired()) return;
      server_.router().clearnet_send(state->conn,
                                     util::to_bytes("GET " + parsed.path + "\n"));
    });
  };
  // A network-budget trip is a function fault like any other: it kills this
  // container, not the simulation. A dead container ignores the rest of the
  // fetch.
  cbs.on_data = [this, alive, state](util::ByteView d) {
    if (alive.expired() || dead_) return;
    run_guarded([&] { resources_->charge_network(d.size()); });
    if (dead_) return;
    state->size += d.size();
    if (state->blocks.empty() ||
        state->blocks.back().size() + d.size() > state->blocks.back().capacity()) {
      state->blocks.emplace_back().reserve(std::max(kFetchBlock, d.size()));
    }
    util::append(state->blocks.back(), d);
  };
  cbs.on_end = [this, alive, state, done_shared] {
    if (alive.expired() || dead_) return;
    resources_->close_connection();
    util::Bytes body;
    body.reserve(state->size);
    for (const util::Bytes& block : state->blocks) util::append(body, block);
    state->blocks.clear();
    // Function code runs guarded even on async paths.
    run_guarded([&] { (*done_shared)(true, std::move(body)); });
  };
  if (!server_.router().open_clearnet(parsed.endpoint, std::move(cbs), &state->conn)) {
    resources_->close_connection();
    run_guarded([&] { (*done_shared)(false, {}); });
  }
}

util::Time Container::now() {
  filter_.check(sandbox::Syscall::Clock);
  return server_.simulator().now();
}

void Container::after(util::Duration delay, std::function<void()> fn) {
  filter_.check(sandbox::Syscall::Clock);
  std::weak_ptr<bool> alive = alive_;
  server_.simulator().after(delay, [this, alive, fn = std::move(fn)] {
    if (alive.expired() || dead_) return;
    run_guarded([&] { fn(); });
  });
}

util::Bytes Container::random_bytes(std::size_t n) {
  filter_.check(sandbox::Syscall::Random);
  if (n > 64 << 20) throw sandbox::ResourceExceeded("random_bytes: too large");
  return rng_.bytes(n);
}

void Container::deploy(const DeploySpec& spec, DeployCallback done) {
  filter_.check(sandbox::Syscall::SpawnFunction);
  // Composition runs over the server's onion proxy: the function is a Bento
  // client of the remote box (Figure 2's Browser deploying Dropbox).
  auto client = std::make_shared<BentoClient>(server_.stem_proxy(), server_.client_config());
  auto done_shared = std::make_shared<DeployCallback>(std::move(done));
  std::weak_ptr<bool> alive = alive_;
  client->connect(spec.box_fingerprint, [this, alive, client, spec, done_shared](
                                            std::shared_ptr<BentoConnection> conn) {
    if (alive.expired()) return;
    if (conn == nullptr) {
      run_guarded([&] { (*done_shared)(false, {}, {}); });
      return;
    }
    conn->install(spec.manifest, spec.source, spec.native, spec.args,
                  [this, alive, conn, done_shared](std::optional<TokenPair> tokens,
                                                   std::string) {
                    if (alive.expired()) return;
                    if (!tokens.has_value()) {
                      run_guarded([&] { (*done_shared)(false, {}, {}); });
                      return;
                    }
                    deployed_.push_back(conn);  // keep stream alive
                    util::Bytes token = tokens->invocation.bytes();
                    util::Bytes stoken = tokens->shutdown.bytes();
                    run_guarded([&] {
                      (*done_shared)(true, std::move(token), std::move(stoken));
                    });
                  });
  });
}

void Container::invoke_remote(const std::string& box_fingerprint,
                              util::ByteView invocation_token, util::ByteView payload,
                              std::function<void(util::Bytes output)> on_output) {
  filter_.check(sandbox::Syscall::SpawnFunction);
  std::weak_ptr<bool> alive = alive_;
  auto relay = [this, alive, on_output](util::Bytes out) {
    if (alive.expired()) return;
    run_guarded([&] { on_output(std::move(out)); });
  };
  // Reuse a deployed connection to that box when available.
  for (auto& conn : deployed_) {
    if (conn->box_fingerprint() == box_fingerprint && conn->open()) {
      conn->set_output_handler(relay);
      conn->invoke(invocation_token, payload);
      return;
    }
  }
  auto client = std::make_shared<BentoClient>(server_.stem_proxy(), server_.client_config());
  util::Bytes token_copy(invocation_token.begin(), invocation_token.end());
  util::Bytes payload_copy(payload.begin(), payload.end());
  client->connect(box_fingerprint, [this, alive, client, token_copy, payload_copy,
                                    relay](std::shared_ptr<BentoConnection> conn) {
    if (alive.expired() || conn == nullptr) return;
    deployed_.push_back(conn);
    conn->set_output_handler(relay);
    conn->invoke(token_copy, payload_copy);
  });
}

StemSession& Container::stem() { return *stem_; }

std::string Container::box_fingerprint() const { return server_.fingerprint(); }

// ---- ScriptFunction ----

ScriptFunction::ScriptFunction(const std::string& source,
                               script::InterpreterOptions options)
    : ScriptFunction(std::shared_ptr<const script::Program>(script::parse(source)),
                     std::move(options)) {}

ScriptFunction::ScriptFunction(std::shared_ptr<const script::Program> program,
                               script::InterpreterOptions options)
    : interp_(std::make_unique<script::Interpreter>(std::move(program),
                                                    std::move(options))) {
  script::install_stdlib(*interp_);
}

void ScriptFunction::bind_modules(HostApi& api) {
  if (bound_) return;
  bound_ = true;
  HostApi* host = &api;
  using script::Interpreter;
  using script::native_row;
  using script::Value;
  using Args = std::vector<Value>;

  // A host module is a dict global, made at its first binding. Each native
  // goes into its module through its row of the natives table
  // (script/natives.hpp), which fixes the argument counts the interpreter
  // admits.
  const auto module = [this](std::string_view name) -> script::Dict& {
    const std::string key(name);
    if (interp_->global(key).is_none()) interp_->bind(key, Value::dict());
    return interp_->global(key).as_dict();
  };
  const auto bind = [&module](const script::NativeSig& row, script::NativeFn fn) {
    module(row.owner)[std::string(row.name)] = Value::native(row, std::move(fn));
  };

  // The bytes a payload argument stands for. A bytes value is viewed where
  // it lives (the call's argument, alive for the whole host call); a str,
  // or anything else by its display form, is rendered into `rendered`.
  auto as_payload = [](const Value& v, util::Bytes& rendered) -> util::ByteView {
    if (v.is_bytes()) return v.as_bytes();
    rendered = v.is_str() ? util::to_bytes(v.as_str()) : util::to_bytes(v.to_display());
    return rendered;
  };

  bind(native_row("api", "send"), [host, as_payload](Interpreter&, Args& args) {
    util::Bytes rendered;
    host->send(as_payload(args[0], rendered));
    return Value::none();
  });
  bind(native_row("api", "handle"), [host](Interpreter&, Args&) {
    return Value::integer(static_cast<std::int64_t>(host->reply_handle()));
  });
  bind(native_row("api", "send_to"), [host, as_payload](Interpreter&, Args& args) {
    util::Bytes rendered;
    host->send_to(static_cast<std::uint64_t>(args[0].as_int()), as_payload(args[1], rendered));
    return Value::none();
  });
  bind(native_row("api", "log"), [host](Interpreter&, Args& args) {
    std::string line;
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (i > 0) line += " ";
      line += args[i].to_display();
    }
    host->log(line);
    return Value::none();
  });

  bind(native_row("fs", "write"), [host, as_payload](Interpreter&, Args& args) {
    util::Bytes rendered;
    host->fs_write(args[0].as_str(), as_payload(args[1], rendered));
    return Value::none();
  });
  bind(native_row("fs", "read"), [host](Interpreter&, Args& args) {
    auto data = host->fs_read(args[0].as_str());
    if (!data.has_value()) return Value::none();
    return Value::bytes(std::move(*data));
  });
  bind(native_row("fs", "delete"), [host](Interpreter&, Args& args) {
    return Value::boolean(host->fs_remove(args[0].as_str()));
  });
  bind(native_row("fs", "list"), [host](Interpreter&, Args&) {
    script::List out;
    for (const auto& name : host->fs_list()) out.push_back(Value::str(name));
    return Value::list(std::move(out));
  });

  bind(native_row("net", "get"), [host](Interpreter& in, Args& args) {
    if (!args[1].is_callable()) throw script::TypeError("net.get: callback is not callable");
    const std::string url = args[0].as_str();
    Value callback = args[1];
    host->http_get(url, [&in, callback](bool ok, util::Bytes body) {
      std::vector<Value> cb_args;
      cb_args.push_back(ok ? Value::bytes(std::move(body)) : Value::none());
      in.call_value(callback, std::move(cb_args));
    });
    return Value::none();
  });

  bind(native_row("os", "urandom"), [host](Interpreter&, Args& args) {
    const std::int64_t n = args[0].as_int();
    if (n < 0) throw script::TypeError("os.urandom(): negative size");
    return Value::bytes(host->random_bytes(static_cast<std::size_t>(n)));
  });

  bind(native_row("time", "now"), [host](Interpreter&, Args&) {
    return Value::real(host->now().seconds());
  });
  bind(native_row("time", "after"), [host](Interpreter& in, Args& args) {
    if (!args[1].is_callable()) throw script::TypeError("time.after: callback is not callable");
    Value callback = args[1];
    host->after(util::Duration::seconds(args[0].as_float()),
                [&in, callback] { in.call_value(callback, {}); });
    return Value::none();
  });

  bind(native_row("zlib", "compress"), [as_payload](Interpreter&, Args& args) {
    util::Bytes rendered;
    return Value::bytes(util::zlite::compress(as_payload(args[0], rendered)));
  });
  bind(native_row("zlib", "decompress"), [](Interpreter&, Args& args) {
    return Value::bytes(util::zlite::decompress(args[0].as_bytes()));
  });

  module("bento")["self"] = Value::str(api.box_fingerprint());
  bind(native_row("bento", "deploy"), [host](Interpreter& in, Args& args) {
    // bento.deploy(box_fp, name, source, [syscall names], args, callback)
    if (!args[5].is_callable()) throw script::TypeError("bento.deploy: callback is not callable");
    HostApi::DeploySpec spec;
    spec.box_fingerprint = args[0].as_str();
    spec.manifest.name = args[1].as_str();
    spec.source = args[2].as_str();
    for (const auto& v : args[3].as_list()) {
      spec.manifest.required.push_back(sandbox::syscall_from_string(v.as_str()));
    }
    spec.args = args[4].is_bytes() ? args[4].as_bytes()
                                   : util::to_bytes(args[4].to_display());
    Value callback = args[5];
    host->deploy(spec, [&in, callback](bool ok, util::Bytes token, util::Bytes) {
      std::vector<Value> cb_args;
      cb_args.push_back(ok ? Value::bytes(std::move(token)) : Value::none());
      in.call_value(callback, std::move(cb_args));
    });
    return Value::none();
  });
  bind(native_row("bento", "invoke"), [host, as_payload](Interpreter& in, Args& args) {
    // bento.invoke(box_fp, token, payload, on_output)
    if (!args[3].is_callable()) throw script::TypeError("bento.invoke: on_output is not callable");
    Value callback = args[3];
    util::Bytes rendered;
    host->invoke_remote(args[0].as_str(), args[1].as_bytes(), as_payload(args[2], rendered),
                        [&in, callback](util::Bytes output) {
                          std::vector<Value> cb_args;
                          cb_args.push_back(Value::bytes(std::move(output)));
                          in.call_value(callback, std::move(cb_args));
                        });
    return Value::none();
  });
}

void ScriptFunction::on_install(HostApi& api, util::ByteView args) {
  bind_modules(api);
  interp_->run();
  if (interp_->has_function("on_install")) {
    interp_->call("on_install",
                  {script::Value::bytes(util::Bytes(args.begin(), args.end()))});
  }
}

void ScriptFunction::on_message(HostApi& api, util::Bytes payload) {
  bind_modules(api);
  if (interp_->has_function("on_message")) {
    // Built by move: a braced list would copy the payload into the vector.
    std::vector<script::Value> args;
    args.push_back(script::Value::bytes(std::move(payload)));
    interp_->call("on_message", std::move(args));
  }
}

void ScriptFunction::on_shutdown(HostApi& api) {
  bind_modules(api);
  if (interp_->has_function("on_shutdown")) {
    interp_->call("on_shutdown", {});
  }
}

}  // namespace bento::core
