#include "tor/circuit.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tor/wire.hpp"
#include "util/annotations.hpp"
#include "util/log.hpp"
#include "util/serialize.hpp"
#include "util/simclock.hpp"

namespace bento::tor {

namespace {
constexpr char kComponent[] = "tor.circuit";

// Registered once; every CircuitOrigin shares these handles so circuit
// construction stays free of registry lookups.
struct CircuitMetrics {
  obs::Counter built = obs::registry().counter("tor.circuits.built");
  obs::Counter destroyed = obs::registry().counter("tor.circuits.destroyed");
  obs::Counter cells_sent = obs::registry().counter("tor.origin.cells_sent");
  obs::Counter cells_received = obs::registry().counter("tor.origin.cells_received");
  obs::Histogram build_us = obs::registry().histogram("tor.circuit_build_us");
  obs::Histogram ttfb_us = obs::registry().histogram("tor.stream_ttfb_us");
};
CircuitMetrics& circuit_metrics() {
  static CircuitMetrics m;
  return m;
}
}  // namespace

CircuitOrigin::CircuitOrigin(sim::Network& net, sim::NodeId own_node, Path path,
                             CircId circ_id, util::Rng& rng)
    : net_(net),
      own_node_(own_node),
      path_(std::move(path)),
      circ_id_(circ_id),
      rng_(rng),
      streams_(frames_, [this](util::Bytes frame, const RelayCell& rc) {
        send_relay(std::move(frame), rc, -1);
      }),
      created_us_(util::sim_now_micros()) {
  if (path_.empty()) throw std::invalid_argument("CircuitOrigin: empty path");
}

BENTO_HOT void CircuitOrigin::send_cell(const Cell& cell) {
  util::Bytes frame = frames_.take();
  frame_cell_into(frame, cell);
  net_.send(own_node_, path_.front().node, std::move(frame));
}

void CircuitOrigin::build(BuiltFn done) {
  built_cb_ = std::move(done);
  next_hop_to_build_ = 0;
  const RelayDescriptor& guard = path_.front();
  const util::Bytes skin =
      ntor_client_create(pending_ntor_, guard.onion_key, guard.identity_key, rng_);
  Cell create;
  create.circ_id = circ_id_;
  create.command = CellCommand::Create;
  create.set_payload(skin);
  send_cell(create);
  arm_build_timer();
}

void CircuitOrigin::continue_build() {
  if (next_hop_to_build_ >= path_.size()) {
    built_ = true;
    const std::int64_t built_us = util::sim_now_micros();
    CircuitMetrics& m = circuit_metrics();
    m.built.inc();
    if (created_us_ >= 0 && built_us >= 0) m.build_us.record(built_us - created_us_);
    obs::trace(obs::Ev::CircBuilt, circ_id_,
               static_cast<std::uint64_t>(hop_count()));
    if (built_cb_) {
      auto cb = std::move(built_cb_);
      built_cb_ = nullptr;
      cb(true);
    }
    return;
  }
  // Extend to the next hop through the ones already built.
  const RelayDescriptor& target = path_[next_hop_to_build_];
  const util::Bytes skin =
      ntor_client_create(pending_ntor_, target.onion_key, target.identity_key, rng_);
  util::Writer w;
  w.str(target.fingerprint());
  w.blob(skin);
  const util::Bytes body = std::move(w).take();
  RelayCell extend;
  extend.relay_cmd = RelayCommand::Extend;
  extend.data = body;
  send_relay(extend, static_cast<int>(next_hop_to_build_) - 1);
}

void CircuitOrigin::fail_build() {
  if (failing_) return;  // destroy() below can re-enter via callbacks
  failing_ = true;
  if (failed_hop_.empty() && !path_.empty()) {
    const std::size_t idx =
        next_hop_to_build_ < path_.size() ? next_hop_to_build_ : path_.size() - 1;
    failed_hop_ = path_[idx].fingerprint();
  }
  // Release circuit + stream state first so the waiter observes a fully
  // torn-down circuit, then deliver the failure exactly once.
  auto cb = std::move(built_cb_);
  built_cb_ = nullptr;
  destroy();
  if (cb) cb(false);
  failing_ = false;
}

void CircuitOrigin::arm_build_timer() {
  if (build_timeout_.count_micros() <= 0) return;
  std::weak_ptr<char> alive = alive_;
  net_.simulator().after(build_timeout_, [this, alive] {
    if (alive.expired() || built_ || destroyed_) return;
    util::log_warn(kComponent, "build timeout on circuit ", circ_id_,
                   " at hop ", next_hop_to_build_);
    fail_build();
  });
}

void CircuitOrigin::handle_cell(util::Bytes frame) {
  handle_frame(frame);
  // Destruction is deferred (OnionProxy::forget), so this end is still here
  // even if handling the cell tore the circuit down.
  frames_.give(std::move(frame));
}

void CircuitOrigin::handle_frame(std::span<std::uint8_t> frame) {
  if (destroyed_) return;
  switch (frame_command(frame)) {
    case CellCommand::Created: {
      const util::ByteView reply = frame_payload(frame).first(kNtorReplyLen);
      auto keys = ntor_client_finish(pending_ntor_, reply);
      if (!keys.has_value()) {
        util::log_warn(kComponent, "handshake authentication failed at hop 0");
        fail_build();
        return;
      }
      layers_.push_back(std::make_unique<LayerCrypto>(*keys));
      obs::trace(obs::Ev::CircExtend, circ_id_, 0);
      next_hop_to_build_ = 1;
      continue_build();
      return;
    }
    case CellCommand::Relay: {
      circuit_metrics().cells_received.inc();
      obs::trace(obs::Ev::CellRecv, circ_id_, 0);
      const PayloadSpan payload = frame_payload(frame);
      for (std::size_t i = 0; i < layers_.size(); ++i) {
        layers_[i]->crypt_backward(payload);
        if (layers_[i]->check_backward(payload)) {
          RelayCell rc;
          try {
            rc = RelayCell::unpack(payload);
          } catch (const util::ParseError&) {
            destroy();
            return;
          }
          dispatch_relay(rc, static_cast<int>(i));
          return;
        }
      }
      if (virtual_relay_.has_value()) {
        virtual_relay_->crypt_forward(payload);
        if (virtual_relay_->check_forward(payload)) {
          RelayCell rc;
          try {
            rc = RelayCell::unpack(payload);
          } catch (const util::ParseError&) {
            destroy();
            return;
          }
          dispatch_relay(rc, hop_count());  // virtual hop index
          return;
        }
      }
      util::log_warn(kComponent, "unrecognized backward cell on circuit ", circ_id_);
      return;
    }
    case CellCommand::Destroy: {
      destroyed_ = true;
      circuit_metrics().destroyed.inc();
      obs::trace(obs::Ev::CircTeardown, circ_id_, 1);  // b=1: remote destroy
      if (!built_ && failed_hop_.empty() && !path_.empty()) {
        const std::size_t idx = next_hop_to_build_ < path_.size()
                                    ? next_hop_to_build_
                                    : path_.size() - 1;
        failed_hop_ = path_[idx].fingerprint();
      }
      streams_.close_all();
      if (built_cb_) {
        auto cb = std::move(built_cb_);
        built_cb_ = nullptr;
        cb(false);
      }
      if (on_destroy_) on_destroy_();
      return;
    }
    default:
      break;
  }
}

void CircuitOrigin::send_relay(const RelayCell& rc, int hop) {
  send_relay(frames_.take(), rc, hop);
}

BENTO_HOT void CircuitOrigin::send_relay(util::Bytes frame, const RelayCell& rc, int hop) {
  if (destroyed_) return;
  circuit_metrics().cells_sent.inc();
  obs::trace(obs::Ev::CellSend, circ_id_,
             static_cast<std::uint64_t>(rc.relay_cmd));
  if (virtual_relay_.has_value()) {
    // Service side: seal at the virtual layer (relay-style, backward
    // digest), then wrap in every real hop's forward keystream without
    // sealing — no real hop recognizes the cell; the rendezvous point
    // splices it through to the client.
    const PayloadSpan payload = frame_payload(frame);
    rc.pack_into(payload);
    virtual_relay_->seal_backward(payload);
    virtual_relay_->crypt_backward(payload);
    for (std::size_t i = layers_.size(); i-- > 0;) {
      layers_[i]->crypt_forward(payload);
    }
    set_frame_header(frame, circ_id_, CellCommand::Relay);
    net_.send(own_node_, path_.front().node, std::move(frame));
    return;
  }
  const int last = hop_count() - 1;
  if (hop < 0) hop = last;
  if (hop > last || hop < 0) {
    throw std::invalid_argument("send_relay: bad hop index");
  }
  const PayloadSpan payload = frame_payload(frame);
  rc.pack_into(payload);
  layers_[static_cast<std::size_t>(hop)]->seal_forward(payload);
  for (int i = hop; i >= 0; --i) {
    layers_[static_cast<std::size_t>(i)]->crypt_forward(payload);
  }
  set_frame_header(frame, circ_id_, CellCommand::Relay);
  net_.send(own_node_, path_.front().node, std::move(frame));
}

void CircuitOrigin::add_hop_keys(const LayerKeys& keys) {
  layers_.push_back(std::make_unique<LayerCrypto>(keys));
}

void CircuitOrigin::enable_virtual_relay(const LayerKeys& keys) {
  virtual_relay_.emplace(keys);
}

Stream* CircuitOrigin::open_stream(const Endpoint& to, Stream::Callbacks cbs) {
  if (!built_) throw std::logic_error("open_stream: circuit not built");
  const StreamId sid = next_stream_id_++;
  Stream& stream = streams_.add(sid, std::move(cbs));
  stream.opened_us = util::sim_now_micros();
  obs::trace(obs::Ev::StreamOpen, circ_id_, sid);

  util::Writer w;
  w.u32(to.addr);
  w.u16(to.port);
  const util::Bytes body = std::move(w).take();
  RelayCell begin;
  begin.relay_cmd = RelayCommand::Begin;
  begin.stream_id = sid;
  begin.data = body;
  send_relay(begin);
  return &stream;
}

void CircuitOrigin::dispatch_relay(const RelayCell& rc, int hop) {
  switch (rc.relay_cmd) {
    case RelayCommand::Extended: {
      auto keys = ntor_client_finish(pending_ntor_, rc.data);
      if (!keys.has_value()) {
        util::log_warn(kComponent, "handshake authentication failed at hop ",
                       next_hop_to_build_);
        fail_build();
        return;
      }
      layers_.push_back(std::make_unique<LayerCrypto>(*keys));
      obs::trace(obs::Ev::CircExtend, circ_id_, next_hop_to_build_);
      next_hop_to_build_++;
      continue_build();
      return;
    }
    case RelayCommand::Data: {
      const std::int64_t now_us = util::sim_now_micros();
      Stream* stream = streams_.receive_data(rc);
      if (stream == nullptr) return;
      if (stream->first_byte_us < 0) {
        stream->first_byte_us = now_us;
        if (stream->opened_us >= 0) {
          circuit_metrics().ttfb_us.record(now_us - stream->opened_us);
          obs::trace(obs::Ev::StreamTtfb, circ_id_,
                     static_cast<std::uint64_t>(now_us - stream->opened_us));
        }
      }
      stream->last_byte_us = now_us;
      streams_.deliver(*stream, rc.data);
      return;
    }
    case RelayCommand::End: {
      const Stream* stream = streams_.find(rc.stream_id);
      if (stream != nullptr && stream->opened_us >= 0 && stream->last_byte_us >= 0) {
        obs::trace(obs::Ev::StreamTtlb, circ_id_,
                   static_cast<std::uint64_t>(stream->last_byte_us -
                                              stream->opened_us));
      }
      streams_.receive(rc);
      return;
    }
    case RelayCommand::Connected:
    case RelayCommand::SendmeCircuit:
    case RelayCommand::SendmeStream:
      streams_.receive(rc);
      return;
    case RelayCommand::Begin:
      // Service side (virtual hop): accept or refuse.
      streams_.accept(rc.stream_id, acceptor_);
      return;
    default:
      if (relay_handler_) relay_handler_(rc, hop);
      return;
  }
}

void CircuitOrigin::destroy() {
  if (destroyed_) return;
  destroyed_ = true;
  circuit_metrics().destroyed.inc();
  obs::trace(obs::Ev::CircTeardown, circ_id_, 0);  // b=0: local teardown
  Cell destroy_cell;
  destroy_cell.circ_id = circ_id_;
  destroy_cell.command = CellCommand::Destroy;
  send_cell(destroy_cell);
  streams_.close_all();
  if (on_destroy_) on_destroy_();
}

}  // namespace bento::tor
