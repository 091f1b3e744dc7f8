#include "functions/pow.hpp"

#include "crypto/sha256.hpp"
#include "util/serialize.hpp"

namespace bento::functions {

int leading_zero_bits(util::ByteView digest) {
  int bits = 0;
  for (std::uint8_t byte : digest) {
    if (byte == 0) {
      bits += 8;
      continue;
    }
    for (int i = 7; i >= 0; --i) {
      if (byte & (1u << i)) return bits;
      ++bits;
    }
  }
  return bits;
}

namespace {
crypto::Digest stamp_digest(util::ByteView context, std::uint64_t nonce) {
  util::Writer w;
  w.blob(context);
  w.u64(nonce);
  return crypto::sha256(w.data());
}
}  // namespace

bool pow_verify(util::ByteView context, std::uint64_t nonce, int difficulty) {
  const crypto::Digest d = stamp_digest(context, nonce);
  return leading_zero_bits(util::ByteView(d.data(), d.size())) >= difficulty;
}

std::optional<std::uint64_t> pow_solve(util::ByteView context, int difficulty,
                                       std::uint64_t max_attempts) {
  for (std::uint64_t nonce = 0; nonce < max_attempts; ++nonce) {
    if (pow_verify(context, nonce, difficulty)) return nonce;
  }
  return std::nullopt;
}

void PowGateFunction::on_install(core::HostApi& api, util::ByteView args) {
  if (!args.empty()) difficulty_ = args[0];
  api.log("pow-gate: difficulty " + std::to_string(difficulty_));
}

void PowGateFunction::on_message(core::HostApi& api, util::Bytes payload) {
  const std::string text = util::to_string(payload);
  const auto colon = text.find(':');
  bool ok = false;
  std::string body;
  if (colon != std::string::npos) {
    try {
      const std::uint64_t nonce = std::stoull(text.substr(0, colon), nullptr, 16);
      body = text.substr(colon + 1);
      ok = pow_verify(util::to_bytes(kContext), nonce, difficulty_);
    } catch (const std::exception&) {
      ok = false;
    }
  }
  if (ok) {
    ++admitted_;
    api.send(util::to_bytes("ADMIT:" + body));
  } else {
    ++denied_;
    api.send(util::to_bytes("DENY"));
  }
}

void register_pow_gate(core::NativeRegistry& registry) {
  registry.add("pow-gate", [] { return std::make_unique<PowGateFunction>(); });
}

core::FunctionManifest pow_gate_manifest() {
  core::FunctionManifest m;
  m.name = "pow-gate";
  m.required = {};
  m.resources.memory_bytes = 4 << 20;
  m.resources.cpu_instructions = 100'000'000;
  m.resources.disk_bytes = 1 << 20;
  m.resources.network_bytes = 64 << 20;
  return m;
}

}  // namespace bento::functions
