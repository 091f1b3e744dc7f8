#include "functions/shard.hpp"

#include <stdexcept>

#include "functions/library.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/serialize.hpp"

namespace bento::functions {

namespace gf256 {
namespace {
struct Tables {
  std::array<std::uint8_t, 256> log{};
  std::array<std::uint8_t, 512> exp{};
  Tables() {
    std::uint8_t x = 1;
    for (int i = 0; i < 255; ++i) {
      exp[static_cast<std::size_t>(i)] = x;
      log[x] = static_cast<std::uint8_t>(i);
      // multiply by generator 3: x*2 ^ x
      std::uint8_t x2 = static_cast<std::uint8_t>(
          (x << 1) ^ ((x & 0x80) ? 0x1b : 0x00));
      x = static_cast<std::uint8_t>(x2 ^ x);
    }
    for (int i = 255; i < 512; ++i) exp[static_cast<std::size_t>(i)] = exp[static_cast<std::size_t>(i - 255)];
  }
};
const Tables& tables() {
  static const Tables t;
  return t;
}
}  // namespace

std::uint8_t mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  const Tables& t = tables();
  return t.exp[static_cast<std::size_t>(t.log[a]) + t.log[b]];
}

std::uint8_t inv(std::uint8_t a) {
  if (a == 0) throw std::invalid_argument("gf256::inv(0)");
  const Tables& t = tables();
  return t.exp[255 - t.log[a]];
}
}  // namespace gf256

namespace {
/// Cauchy coefficient row for shard `index` over k source blocks:
/// a_j = 1 / (x_i + y_j) with x_i = k + index, y_j = j (all distinct bytes).
std::vector<std::uint8_t> cauchy_row(int index, int k) {
  std::vector<std::uint8_t> row(static_cast<std::size_t>(k));
  const std::uint8_t x = static_cast<std::uint8_t>(k + index);
  for (int j = 0; j < k; ++j) {
    row[static_cast<std::size_t>(j)] =
        gf256::inv(static_cast<std::uint8_t>(x ^ static_cast<std::uint8_t>(j)));
  }
  return row;
}
}  // namespace

util::Bytes Shard::serialize() const {
  util::Writer w;
  w.u8(index);
  w.u16(k);
  w.u16(n);
  w.u64(original_size);
  w.blob(data);
  return std::move(w).take();
}

Shard Shard::deserialize(util::ByteView wire) {
  util::Reader r(wire);
  Shard s;
  s.index = r.u8();
  s.k = r.u16();
  s.n = r.u16();
  s.original_size = r.u64();
  s.data = r.blob();
  r.expect_done();
  return s;
}

std::vector<Shard> shard_encode(util::ByteView data, int k, int n) {
  if (k < 1 || k > n || k + n > 255) {
    throw std::invalid_argument("shard_encode: need 1 <= k <= n, k+n <= 255");
  }
  const std::size_t block = (data.size() + static_cast<std::size_t>(k) - 1) /
                            static_cast<std::size_t>(k);
  // Zero-padded source blocks.
  std::vector<util::Bytes> sources(static_cast<std::size_t>(k),
                                   util::Bytes(block, 0));
  for (std::size_t i = 0; i < data.size(); ++i) {
    sources[i / block][i % block] = data[i];
  }

  std::vector<Shard> shards;
  shards.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Shard s;
    s.index = static_cast<std::uint8_t>(i);
    s.k = static_cast<std::uint16_t>(k);
    s.n = static_cast<std::uint16_t>(n);
    s.original_size = data.size();
    s.data.assign(block, 0);
    const auto row = cauchy_row(i, k);
    for (int j = 0; j < k; ++j) {
      const std::uint8_t c = row[static_cast<std::size_t>(j)];
      if (c == 0) continue;
      const util::Bytes& src = sources[static_cast<std::size_t>(j)];
      for (std::size_t b = 0; b < block; ++b) {
        s.data[b] = static_cast<std::uint8_t>(s.data[b] ^ gf256::mul(c, src[b]));
      }
    }
    shards.push_back(std::move(s));
  }
  return shards;
}

std::optional<util::Bytes> shard_decode(const std::vector<Shard>& shards) {
  if (shards.empty()) return std::nullopt;
  const int k = shards[0].k;
  const std::uint64_t original_size = shards[0].original_size;
  const std::size_t block = shards[0].data.size();

  // Collect k distinct, consistent shards.
  std::vector<const Shard*> chosen;
  std::vector<bool> seen(256, false);
  for (const Shard& s : shards) {
    if (s.k != shards[0].k || s.n != shards[0].n ||
        s.original_size != original_size || s.data.size() != block) {
      return std::nullopt;
    }
    if (seen[s.index]) continue;
    seen[s.index] = true;
    chosen.push_back(&s);
    if (static_cast<int>(chosen.size()) == k) break;
  }
  if (static_cast<int>(chosen.size()) < k) return std::nullopt;

  // Gaussian elimination on [A | shards] over GF(256).
  const std::size_t kk = static_cast<std::size_t>(k);
  std::vector<std::vector<std::uint8_t>> a(kk);
  std::vector<util::Bytes> rhs(kk);
  for (std::size_t r = 0; r < kk; ++r) {
    a[r] = cauchy_row(chosen[r]->index, k);
    rhs[r] = chosen[r]->data;
  }
  for (std::size_t col = 0; col < kk; ++col) {
    // Pivot.
    std::size_t pivot = col;
    while (pivot < kk && a[pivot][col] == 0) ++pivot;
    if (pivot == kk) return std::nullopt;  // singular (cannot happen w/ Cauchy)
    std::swap(a[pivot], a[col]);
    std::swap(rhs[pivot], rhs[col]);
    // Normalize.
    const std::uint8_t piv_inv = gf256::inv(a[col][col]);
    for (std::size_t j = 0; j < kk; ++j) a[col][j] = gf256::mul(a[col][j], piv_inv);
    for (std::size_t b = 0; b < block; ++b) {
      rhs[col][b] = gf256::mul(rhs[col][b], piv_inv);
    }
    // Eliminate.
    for (std::size_t r = 0; r < kk; ++r) {
      if (r == col || a[r][col] == 0) continue;
      const std::uint8_t factor = a[r][col];
      for (std::size_t j = 0; j < kk; ++j) {
        a[r][j] = static_cast<std::uint8_t>(a[r][j] ^ gf256::mul(factor, a[col][j]));
      }
      for (std::size_t b = 0; b < block; ++b) {
        rhs[r][b] = static_cast<std::uint8_t>(rhs[r][b] ^ gf256::mul(factor, rhs[col][b]));
      }
    }
  }

  util::Bytes out;
  out.reserve(kk * block);
  for (std::size_t r = 0; r < kk; ++r) util::append(out, rhs[r]);
  out.resize(original_size);
  return out;
}

void ShardClient::put_shard(const std::string& box, Shard shard,
                            std::function<void(bool ok, Placement)> done) {
  auto shard_shared = std::make_shared<Shard>(std::move(shard));
  auto done_shared =
      std::make_shared<std::function<void(bool, Placement)>>(std::move(done));
  bento_.connect(box, [box, shard_shared, done_shared](
                          std::shared_ptr<core::BentoConnection> conn) {
    if (conn == nullptr) {
      (*done_shared)(false, {});
      return;
    }
    conn->install(dropbox_manifest(), dropbox_source(), "", {},
                  [box, conn, shard_shared, done_shared](
                      std::optional<core::TokenPair> tokens, std::string) {
      if (!tokens.has_value()) {
        (*done_shared)(false, {});
        return;
      }
      auto placement = std::make_shared<Placement>();
      placement->box = box;
      placement->invocation_token = tokens->invocation.bytes();
      placement->shutdown_token = tokens->shutdown.bytes();
      // PUT the shard; Dropbox answers "OK". The handler must not capture
      // `conn` (a connection owning a closure that owns the connection never
      // dies); BentoClient::live_ keeps it alive.
      conn->set_output_handler([placement, done_shared](util::Bytes out) {
        (*done_shared)(util::to_string(out) == "OK", std::move(*placement));
      });
      util::Bytes payload = util::to_bytes("PUT:");
      util::append(payload, shard_shared->serialize());
      conn->invoke(placement->invocation_token, payload);
    });
  });
}

void ShardClient::store(util::ByteView data, const std::vector<std::string>& boxes,
                        StoreFn done) {
  if (static_cast<int>(boxes.size()) != n_) {
    done(false, {});
    return;
  }
  std::vector<Shard> shards = shard_encode(data, k_, n_);
  auto placements = std::make_shared<std::vector<Placement>>(boxes.size());
  auto remaining = std::make_shared<int>(n_);
  auto failed = std::make_shared<bool>(false);
  auto done_shared = std::make_shared<StoreFn>(std::move(done));

  for (int i = 0; i < n_; ++i) {
    const std::string box = boxes[static_cast<std::size_t>(i)];
    (*placements)[static_cast<std::size_t>(i)].box = box;
    put_shard(box, std::move(shards[static_cast<std::size_t>(i)]),
              [i, placements, remaining, failed, done_shared](bool ok,
                                                              Placement placement) {
                if (!ok) {
                  *failed = true;
                } else {
                  (*placements)[static_cast<std::size_t>(i)] = std::move(placement);
                }
                if (--*remaining == 0) {
                  (*done_shared)(!*failed, std::move(*placements));
                }
              });
  }
}

void ShardClient::fetch(const std::vector<Placement>& placements, FetchFn done) {
  auto shards = std::make_shared<std::vector<Shard>>();
  auto remaining = std::make_shared<int>(static_cast<int>(placements.size()));
  auto done_shared = std::make_shared<FetchFn>(std::move(done));
  auto finished = std::make_shared<bool>(false);
  const int k = k_;

  auto collect = [shards, remaining, done_shared, finished, k](
                     std::optional<Shard> shard) {
    if (*finished) return;
    if (shard.has_value()) shards->push_back(std::move(*shard));
    --*remaining;
    if (static_cast<int>(shards->size()) >= k) {
      *finished = true;
      (*done_shared)(shard_decode(*shards));
      return;
    }
    if (*remaining == 0) {
      *finished = true;
      (*done_shared)(std::nullopt);
    }
  };

  for (const Placement& placement : placements) get_shard(placement, collect);
}

void ShardClient::get_shard(const Placement& placement,
                            std::function<void(std::optional<Shard>)> done) {
  bento_.connect(placement.box, [placement, done](
                                    std::shared_ptr<core::BentoConnection> conn) {
    if (conn == nullptr) {
      done(std::nullopt);
      return;
    }
    // The handler must not capture `conn` (a connection owning a closure
    // that owns the connection never dies); BentoClient::live_ keeps the
    // connection alive for as long as the reply can arrive.
    conn->set_output_handler([done](util::Bytes out) {
      if (util::to_string(out) == "MISSING") {
        done(std::nullopt);
        return;
      }
      try {
        done(Shard::deserialize(out));
      } catch (const util::ParseError&) {
        done(std::nullopt);
      }
    });
    conn->invoke(placement.invocation_token, util::to_bytes("GET:"));
  });
}

void ShardClient::repair(const std::vector<Placement>& placements,
                         const std::vector<std::string>& spare_boxes,
                         RepairFn done) {
  struct State {
    ShardClient* self = nullptr;
    std::vector<Placement> updated;
    std::vector<std::string> spares;
    std::size_t next_spare = 0;
    std::vector<std::optional<Shard>> got;  // probe result per slot
    int probes_left = 0;
    int puts_left = 0;
    bool all_reseeded = true;
    RepairFn done;
  };
  auto st = std::make_shared<State>();
  st->self = this;
  st->updated = placements;
  st->spares = spare_boxes;
  st->got.resize(placements.size());
  st->probes_left = static_cast<int>(placements.size());
  st->done = std::move(done);

  auto reseed = [](std::shared_ptr<State> st) {
    // Every slot probed. Reconstruct, re-encode, and re-seed the dead slots.
    std::vector<Shard> survivors;
    for (const auto& s : st->got) {
      if (s.has_value()) survivors.push_back(*s);
    }
    auto data = shard_decode(survivors);
    if (!data.has_value()) {
      util::log_warn("shard", "repair: fewer than k surviving shards");
      auto cb = std::move(st->done);
      cb(false, std::move(st->updated));
      return;
    }
    // shard_encode is deterministic: slot i gets byte-identical data to what
    // the original store placed there.
    std::vector<Shard> full =
        shard_encode(*data, st->self->k_, st->self->n_);
    std::vector<std::size_t> dead;
    for (std::size_t i = 0; i < st->got.size(); ++i) {
      if (!st->got[i].has_value()) dead.push_back(i);
    }
    if (dead.empty()) {
      auto cb = std::move(st->done);
      cb(true, std::move(st->updated));
      return;
    }
    st->puts_left = static_cast<int>(dead.size());
    for (std::size_t slot : dead) {
      if (st->next_spare >= st->spares.size()) {
        util::log_warn("shard", "repair: out of spare boxes; shard ", slot,
                       " stays lost");
        obs::trace(obs::Ev::ShardRepair, static_cast<std::uint32_t>(slot), 0,
                   /*ok=*/false);
        st->all_reseeded = false;
        if (--st->puts_left == 0) {
          auto cb = std::move(st->done);
          cb(st->all_reseeded, std::move(st->updated));
        }
        continue;
      }
      const std::size_t spare_ref = st->next_spare;
      const std::string spare = st->spares[st->next_spare++];
      st->self->put_shard(spare, full[slot],
                          [st, slot, spare_ref](bool ok, Placement placement) {
        obs::trace(obs::Ev::ShardRepair, static_cast<std::uint32_t>(slot),
                   static_cast<std::uint64_t>(spare_ref), ok);
        if (ok) {
          st->updated[slot] = std::move(placement);
        } else {
          st->all_reseeded = false;
        }
        if (--st->puts_left == 0) {
          auto cb = std::move(st->done);
          cb(st->all_reseeded, std::move(st->updated));
        }
      });
    }
  };

  for (std::size_t i = 0; i < placements.size(); ++i) {
    const Placement& placement = placements[i];
    auto answered = std::make_shared<bool>(false);
    auto probe_done = [st, i, reseed, answered](std::optional<Shard> shard) {
      if (*answered) return;  // duplicate output / late timeout
      *answered = true;
      st->got[i] = std::move(shard);
      if (--st->probes_left == 0) reseed(st);
    };
    // A Dropbox that accepts the stream but never answers (box process
    // crashed, relay alive) must not hang the whole repair. The deadline
    // must outlast a worst-case connect — kBuildAttempts timed-out circuit
    // builds — or a live box reached over a freshly-dead relay would be
    // misclassified as lost.
    bento_.proxy().simulator().after(util::Duration::seconds(90),
                                     [probe_done] { probe_done(std::nullopt); });
    get_shard(placement, probe_done);
  }
}

}  // namespace bento::functions
