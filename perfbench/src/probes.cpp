#include "probes.hpp"

#include <chrono>
#include <map>
#include <stdexcept>

#include "core/container.hpp"
#include "core/message.hpp"
#include "core/server.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/dh.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sign.hpp"
#include "functions/library.hpp"
#include "obs/metrics.hpp"
#include "sandbox/vfs.hpp"
#include "script/analyzer.hpp"
#include "script/parser.hpp"
#include "store/store.hpp"
#include "tee/conclave.hpp"
#include "util/rng.hpp"
#include "util/zlite.hpp"

namespace perfbench {

namespace bc = bento::core;
namespace bcr = bento::crypto;
namespace bt = bento::tor;
namespace bu = bento::util;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Repetitions per probe; each probe reports the median over them.
constexpr int kReps = 5;
// Bytes hashed / encrypted per repetition of the throughput probes.
constexpr std::size_t kStreamBytes = 2u << 20;
constexpr std::size_t kSessionProbes = 8;

// Folds results into a global the optimizer cannot see through.
volatile std::uint64_t g_sink = 0;
void sink(std::uint64_t v) { g_sink = g_sink + v; }

void fail(const std::string& what) { throw std::runtime_error("probe check failed: " + what); }

/// Median over kReps of the mean µs per call of `fn(i)`, i in [0, calls).
template <typename Fn>
double us_per_call(std::size_t calls, Fn&& fn) {
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn(i);
    reps.push_back(seconds_since(t0) * 1e6 / static_cast<double>(calls));
  }
  return median(reps);
}

/// Median over kReps of MB/s for `fn()` processing `bytes` per call.
template <typename Fn>
double mb_per_s(std::size_t bytes, Fn&& fn) {
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = Clock::now();
    fn();
    reps.push_back(static_cast<double>(bytes) / 1e6 / seconds_since(t0));
  }
  return median(reps);
}

/// `chunk`-byte slices of the workload's requests, `total` bytes in all.
std::vector<bu::Bytes> chunks_of(const Inputs& in, std::size_t chunk, std::size_t total) {
  bu::Bytes corpus;
  for (std::size_t i = 0; corpus.size() < chunk * 64; ++i) {
    bu::append(corpus, in.requests[i % in.requests.size()]);
  }
  std::vector<bu::Bytes> out;
  for (std::size_t off = 0; out.size() * chunk < total; off += chunk) {
    if (off + chunk > corpus.size()) off = 0;
    out.emplace_back(corpus.begin() + static_cast<std::ptrdiff_t>(off),
                     corpus.begin() + static_cast<std::ptrdiff_t>(off + chunk));
  }
  return out;
}

/// Only what the library functions reach on a message: replies, the
/// chrooted files, and (for the Browser) fetches answered from the
/// workload's cached bundles.
class StubHost final : public bc::HostApi {
 public:
  explicit StubHost(const Inputs& in) {
    for (std::size_t i = 0; i < in.site_addrs.size(); ++i) {
      pages_["http://" + bt::format_addr(in.site_addrs[i]) + "/bundle"] = &in.payloads[i];
    }
  }
  std::uint64_t sent_bytes = 0;

  void send(bu::ByteView payload) override { sent_bytes += payload.size(); }
  std::uint64_t reply_handle() override { return 0; }
  void send_to(std::uint64_t, bu::ByteView payload) override { sent_bytes += payload.size(); }
  void log(const std::string&) override {}
  void fs_write(const std::string& path, bu::ByteView data) override {
    files_[path] = bu::Bytes(data.begin(), data.end());
  }
  std::optional<bu::Bytes> fs_read(const std::string& path) override {
    auto it = files_.find(path);
    if (it == files_.end()) return std::nullopt;
    return it->second;
  }
  bool fs_remove(const std::string& path) override { return files_.erase(path) > 0; }
  std::vector<std::string> fs_list() override { return {}; }
  void http_get(const std::string& url, HttpCallback done) override {
    auto it = pages_.find(url);
    if (it == pages_.end()) {
      done(false, {});
    } else {
      done(true, *it->second);
    }
  }
  bu::Time now() override { return bu::Time{}; }
  void after(bu::Duration, std::function<void()>) override {}
  bu::Bytes random_bytes(std::size_t n) override { return bu::Bytes(n, 0); }
  void deploy(const DeploySpec&, DeployCallback) override { fail("deploy"); }
  void invoke_remote(const std::string&, bu::ByteView, bu::ByteView,
                     std::function<void(bu::Bytes)>) override {
    fail("invoke_remote");
  }
  bc::StemSession& stem() override { throw std::logic_error("stem: not stubbed"); }
  std::string box_fingerprint() const override { return "stub"; }

 private:
  std::map<std::string, bu::Bytes> files_;
  std::map<std::string, const bu::Bytes*> pages_;
};

void probe_crypto(const Inputs& in, Metrics& out) {
  bu::Rng rng(in.seed ^ 0xc0ffeeULL);
  const bcr::Gp p = bcr::group_prime();
  std::vector<std::pair<bcr::Gp, bcr::Gp>> operands;
  for (int i = 0; i < 16; ++i) {
    operands.emplace_back(bcr::gp_from_bytes(rng.bytes(16)) % p,
                          bcr::gp_from_bytes(rng.bytes(16)) % p);
  }
  out.push_back({"crypto.modpow_us", us_per_call(operands.size(), [&](std::size_t i) {
                   sink(static_cast<std::uint64_t>(
                       bcr::modpow(operands[i].first, operands[i].second, p)));
                 }), "us"});

  out.push_back({"crypto.dh_handshake_us", us_per_call(4, [&](std::size_t) {
                   const bcr::DhKeyPair a = bcr::DhKeyPair::generate(rng);
                   const bcr::DhKeyPair b = bcr::DhKeyPair::generate(rng);
                   if (bcr::dh_shared(a, b.public_value) != bcr::dh_shared(b, a.public_value)) {
                     fail("dh shared secrets differ");
                   }
                 }), "us"});

  const bcr::SigningKey key = bcr::SigningKey::generate(rng);
  std::vector<bcr::Signature> sigs;
  const std::size_t n_sigs = std::min<std::size_t>(8, in.requests.size());
  for (std::size_t i = 0; i < n_sigs; ++i) sigs.push_back(key.sign(in.requests[i]));
  out.push_back({"crypto.schnorr_verify_us", us_per_call(n_sigs, [&](std::size_t i) {
                   if (!bcr::verify(key.public_key(), in.requests[i], sigs[i])) {
                     fail("schnorr verify");
                   }
                 }), "us"});

  const std::vector<bu::Bytes> blocks512 = chunks_of(in, 512, kStreamBytes);
  out.push_back({"crypto.sha256_mb_s", mb_per_s(kStreamBytes, [&] {
                   for (const bu::Bytes& b : blocks512) sink(bcr::sha256(b)[0]);
                 }), "MB/s"});

  std::vector<bu::Bytes> cells = chunks_of(in, 509, kStreamBytes);
  bcr::ChaChaKey ckey{};
  bcr::ChaChaNonce nonce{};
  for (std::size_t i = 0; i < ckey.size(); ++i) ckey[i] = static_cast<std::uint8_t>(rng.next_u64());
  out.push_back({"crypto.chacha20_mb_s", mb_per_s(kStreamBytes, [&] {
                   for (bu::Bytes& c : cells) {
                     bcr::chacha20_xor_inplace(ckey, nonce, 1, c);
                     sink(c[0]);
                   }
                 }), "MB/s"});
}

void probe_core(const Inputs& in, Metrics& out) {
  bu::Rng rng(in.seed ^ 0xf4a3eULL);
  const bu::Bytes token = rng.bytes(32);
  out.push_back({"core.frame_parse_us", us_per_call(in.requests.size(), [&](std::size_t i) {
                   bc::Message msg;
                   msg.type = bc::MsgType::Invoke;
                   msg.token = token;
                   msg.blob = in.requests[i];
                   bc::StreamFramer framer;
                   const std::vector<bc::Message> got = framer.feed(bc::StreamFramer::frame(msg));
                   if (got.size() != 1 || got[0].blob.size() != in.requests[i].size()) {
                     fail("frame round trip");
                   }
                 }), "us"});
}

void probe_tee(const Inputs& in, Metrics& out) {
  bu::Rng rng(in.seed ^ 0x7eeULL);
  bento::tee::Platform platform(1, 2, rng);
  const bu::Bytes image = bc::BentoServer::runtime_image();
  bento::tee::Enclave enclave(platform, image, "perfbench");
  bcr::DhKeyPair ephemeral;
  const auto hello = bento::tee::SecureChannel::client_hello(ephemeral, rng);
  bento::tee::SecureChannel::Accept accept;
  bento::tee::SecureChannel channel =
      bento::tee::SecureChannel::server_accept(hello, enclave, rng, &accept);
  out.push_back({"tee.channel_seal_us", us_per_call(in.requests.size(), [&](std::size_t i) {
                   sink(channel.seal(in.requests[i]).size());
                 }), "us"});

  bento::tee::FsProtect fs(rng);
  const std::size_t n = in.payloads.size();
  out.push_back({"tee.fsprotect_write_us", us_per_call(n, [&](std::size_t i) {
                   fs.write("f" + std::to_string(i), in.payloads[i]);
                 }), "us"});
  out.push_back({"tee.fsprotect_read_us", us_per_call(n, [&](std::size_t i) {
                   if (fs.read("f" + std::to_string(i)) != in.payloads[i]) fail("fsprotect read");
                 }), "us"});
}

void probe_sandbox(const Inputs& in, Metrics& out) {
  bento::sandbox::ResourceLimits limits;
  limits.disk_bytes = 1ull << 30;
  bento::sandbox::ResourceAccountant accountant(limits);
  bento::sandbox::Vfs vfs(std::make_unique<bento::sandbox::MemoryBackend>(), accountant);
  const std::size_t n = in.payloads.size();
  out.push_back({"sandbox.vfs_write_us", us_per_call(n, [&](std::size_t i) {
                   vfs.write("f" + std::to_string(i), in.payloads[i]);
                 }), "us"});
  out.push_back({"sandbox.vfs_read_us", us_per_call(n, [&](std::size_t i) {
                   if (vfs.read("f" + std::to_string(i)) != in.payloads[i]) fail("vfs read");
                 }), "us"});
}

void probe_store(const Inputs& in, Metrics& out) {
  bcr::ChaChaKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(0x42 + i);
  bento::store::Volume volume;
  bento::store::BlobStore store(volume, bento::store::make_chapoly_sealer(key));
  store.replay();
  const std::size_t n = in.payloads.size();
  out.push_back({"store.put_us", us_per_call(n, [&](std::size_t i) {
                   store.put("f" + std::to_string(i), in.payloads[i]);
                   if (i + 1 == n && store.wants_compaction()) store.compact();
                 }), "us"});
  out.push_back({"store.get_us", us_per_call(n, [&](std::size_t i) {
                   if (store.get("f" + std::to_string(i)) != in.payloads[i]) fail("store get");
                 }), "us"});
}

void probe_script(const Inputs& in, Metrics& out) {
  const std::vector<std::string> library = {
      bento::functions::browser_source(),
      bento::functions::dropbox_source(),
      bento::functions::cover_source(),
      bento::functions::policy_query_source(),
  };
  out.push_back({"script.parse_us", us_per_call(library.size(), [&](std::size_t i) {
                   sink(bento::script::parse(library[i])->statements.size());
                 }), "us"});
  std::vector<std::unique_ptr<bento::script::Program>> programs;
  for (const std::string& src : library) programs.push_back(bento::script::parse(src));
  out.push_back({"script.analyze_us", us_per_call(programs.size(), [&](std::size_t i) {
                   sink(bento::script::analyze(*programs[i]).min_steps);
                 }), "us"});

  // The workload's own invoke payloads; a dropbox PUT is followed by a GET.
  std::vector<const bu::Bytes*> messages;
  for (const bu::Bytes& r : in.requests) {
    messages.push_back(&r);
    if (!in.get_request.empty()) messages.push_back(&in.get_request);
  }
  StubHost host(in);
  bc::ScriptFunction fn(in.source, bento::script::InterpreterOptions{});
  fn.on_install(host, {});
  out.push_back({"script.on_message_us", us_per_call(messages.size(), [&](std::size_t i) {
                   fn.on_message(host, *messages[i]);
                 }), "us"});
  if (host.sent_bytes == 0) fail("function sent nothing");
}

void probe_zlite(Metrics& out) {
  const std::vector<bu::Bytes> bundles = site_bundles();
  std::size_t total = 0;
  for (const bu::Bytes& b : bundles) total += b.size();
  out.push_back({"zlite.compress_mb_s", mb_per_s(total, [&] {
                   for (const bu::Bytes& b : bundles) sink(bu::zlite::compress(b).size());
                 }), "MB/s"});
}

}  // namespace

void probe_layers(const Inputs& in, Metrics& out) {
  probe_crypto(in, out);
  probe_core(in, out);
  probe_tee(in, out);
  probe_sandbox(in, out);
  probe_store(in, out);
  probe_script(in, out);
  probe_zlite(out);
}

void probe_sessions(Deployment& d, const Inputs& in, Metrics& out) {
  std::vector<double> connect, spawn, upload, shutdown;
  for (std::size_t i = 0; i < kSessionProbes; ++i) {
    SessionTiming t;
    const std::string& box = d.boxes()[in.schedule[i].box];
    if (!d.session(box, nullptr, nullptr, t)) fail("session on " + box);
    connect.push_back(t.connect_us);
    spawn.push_back(t.spawn_us);
    upload.push_back(t.upload_us);
    shutdown.push_back(t.shutdown_us);
  }
  out.push_back({"core.connect_us", median(connect), "us"});
  out.push_back({"core.spawn_us", median(spawn), "us"});
  out.push_back({"core.upload_us", median(upload), "us"});
  out.push_back({"core.shutdown_us", median(shutdown), "us"});

  bento::obs::Histogram build_hist = bento::obs::registry().histogram("tor.circuit_build_us");
  const std::int64_t sim_before = build_hist.cell()->sum;
  const std::uint64_t count_before = build_hist.cell()->count;
  std::vector<double> wall;
  bt::OnionProxy& proxy = *d.client().proxy;
  for (std::size_t i = 0; i < kSessionProbes; ++i) {
    bt::PathConstraints constraints;
    constraints.last_hop = d.boxes()[in.schedule[i].box];
    bt::CircuitOrigin* circuit = nullptr;
    const auto t0 = Clock::now();
    proxy.build_circuit(constraints, [&](bt::CircuitOrigin* c) { circuit = c; });
    d.world().run();
    wall.push_back(seconds_since(t0) * 1e6);
    if (circuit == nullptr) fail("circuit build");
    circuit->destroy();
    proxy.forget(circuit);
    d.world().run();
  }
  const bento::obs::HistogramCell* cell = build_hist.cell();
  const std::uint64_t builds = cell->count - count_before;
  if (builds == 0) fail("no circuit build recorded");
  out.push_back({"tor.circuit_build_us", median(wall), "us"});
  out.push_back({"tor.circuit_build_sim_ms",
                 static_cast<double>(cell->sum - sim_before) / 1e3 / static_cast<double>(builds),
                 "ms"});
}

}  // namespace perfbench
