#include "tor/router.hpp"

#include <stdexcept>
#include <vector>

#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "tor/ntor.hpp"
#include "tor/wire.hpp"
#include "util/log.hpp"
#include "util/serialize.hpp"

namespace bento::tor {

namespace {
constexpr char kComponent[] = "tor.router";

// Both endpoints of a node pair allocate circuit ids; the lower NodeId uses
// the low half of the id space so allocations never collide.
CircId alloc_circ_id(CircId counter, bool low_side) {
  return low_side ? counter : (counter | 0x80000000u);
}
}  // namespace

Router::Router(sim::Simulator& sim, sim::Network& net, Internet& internet,
               const RelayConfig& config, util::Rng rng)
    : sim_(sim),
      net_(net),
      internet_(internet),
      rng_(rng),
      identity_(crypto::SigningKey::generate(rng_)),
      onion_key_(crypto::DhKeyPair::generate(rng_)),
      node_(net.add_node(
          {config.nickname, config.up_bytes_per_sec, config.down_bytes_per_sec},
          this)),
      tcp_(net, node_) {
  descriptor_.nickname = config.nickname;
  descriptor_.identity_key = identity_.public_key();
  descriptor_.onion_key = onion_key_.public_value;
  descriptor_.addr = config.addr;
  descriptor_.or_port = config.or_port;
  descriptor_.node = node_;
  descriptor_.bandwidth = config.bandwidth;
  descriptor_.flags = config.flags;
  descriptor_.exit_policy = config.exit_policy;
  descriptor_.bento_policy = config.bento_policy;
  descriptor_.sign(identity_);
}

Router::Circuit::Circuit(Router& router)
    : streams(router.frames_, [&router, this](util::Bytes frame, const RelayCell& rc) {
        router.send_backward(*this, rc, std::move(frame));
      }) {}

void Router::bind_local_app(Port port, StreamAcceptor accept) {
  if (!accept) throw std::invalid_argument("bind_local_app: empty acceptor");
  local_apps_[port] = std::move(accept);
}

bool Router::open_clearnet(const Endpoint& to, TcpClient::Callbacks cbs,
                           std::uint64_t* conn_out) {
  auto server = internet_.resolve(to.addr);
  if (!server.has_value()) return false;
  const std::uint64_t conn = tcp_.open(*server, to.port, std::move(cbs));
  if (conn_out != nullptr) *conn_out = conn;
  return true;
}

void Router::clearnet_send(std::uint64_t conn, util::ByteView data) {
  tcp_.send(conn, data);
}

void Router::on_message(sim::NodeId from, util::Bytes data) {
  if (!is_framed_cell(data)) {
    // Everything else on a relay node is TCP-like clearnet traffic.
    try {
      tcp_.on_message(from, TcpMsg::unpack(data));
    } catch (const util::ParseError&) {
      util::log_warn(kComponent, descriptor_.nickname, ": unparseable message from ",
                     from);
    }
    return;
  }
  const CircId circ_id = frame_circ_id(data);
  obs::trace(obs::Ev::CellRecv, circ_id, node_);
  // One span per cell per hop: inert unless the cell arrived on a traced
  // request's causal chain. Zero sim-time (relay processing is modeled as
  // instantaneous), but it marks which hops the request crossed and in what
  // order, which is what bentotrace's flow arrows render.
  obs::SpanScope span(obs::Stage::RelayForward, node_);
  if (frame_command(data) == CellCommand::Relay) {
    handle_relay(from, circ_id, std::move(data));
    return;
  }
  const Cell cell = unframe_cell(data);
  switch (cell.command) {
    case CellCommand::Create: handle_create(from, cell); break;
    case CellCommand::Created: handle_created(from, cell); break;
    case CellCommand::Destroy: handle_destroy(from, cell); break;
    case CellCommand::Relay:    // handled in place above
    case CellCommand::Padding:  // link padding is absorbed
      break;
  }
  frames_.give(std::move(data));
}

BENTO_HOT void Router::send_cell(sim::NodeId to, const Cell& cell) {
  util::Bytes frame = frames_.take();
  frame_cell_into(frame, cell);
  net_.send(node_, to, std::move(frame));
}

BENTO_HOT void Router::forward_frame(sim::NodeId to, CircId circ_id, util::Bytes frame) {
  set_frame_circ_id(frame, circ_id);
  net_.send(node_, to, std::move(frame));
}

Router::Circuit* Router::find_circuit(const Key& key) {
  auto it = circuits_.find(key);
  return it == circuits_.end() ? nullptr : it->second.get();
}

void Router::handle_create(sim::NodeId from, const Cell& cell) {
  const Key key{from, cell.circ_id};
  if (find_circuit(key) != nullptr) {
    util::log_warn(kComponent, descriptor_.nickname, ": duplicate CREATE");
    return;
  }
  util::Bytes skin(cell.payload.begin(), cell.payload.begin() + kNtorOnionSkinLen);
  NtorServerReply reply;
  try {
    reply = ntor_server_respond(onion_key_, identity_.public_key(), skin, rng_);
  } catch (const std::invalid_argument&) {
    Cell destroy;
    destroy.circ_id = cell.circ_id;
    destroy.command = CellCommand::Destroy;
    send_cell(from, destroy);
    return;
  }
  auto circ = std::make_shared<Circuit>(*this);
  circ->prev_peer = from;
  circ->prev_id = cell.circ_id;
  circ->crypto = std::make_unique<LayerCrypto>(reply.keys);
  circuits_[key] = circ;
  ++counters_.circuits_created;

  Cell created;
  created.circ_id = cell.circ_id;
  created.command = CellCommand::Created;
  created.set_payload(reply.created_payload);
  send_cell(from, created);
}

void Router::handle_created(sim::NodeId from, const Cell& cell) {
  const Key next_key{from, cell.circ_id};
  auto pending = pending_extend_.find(next_key);
  if (pending == pending_extend_.end()) return;
  const Key prev_key = pending->second;
  pending_extend_.erase(pending);

  Circuit* circ = find_circuit(prev_key);
  if (circ == nullptr) return;
  circ->next = next_key;
  circuits_[next_key] = circuits_[prev_key];  // alias both sides

  RelayCell extended;
  extended.relay_cmd = RelayCommand::Extended;
  extended.data = util::ByteView(cell.payload).first(kNtorReplyLen);
  send_backward(*circ, extended);
}

BENTO_HOT void Router::handle_relay(sim::NodeId from, CircId circ_id, util::Bytes frame) {
  const Key key{from, circ_id};
  Circuit* circ = find_circuit(key);
  if (circ == nullptr) return;
  const PayloadSpan payload = frame_payload(frame);

  if (from != circ->prev_peer || circ_id != circ->prev_id) {
    // Backward: add our layer and pass toward the origin.
    circ->crypto->crypt_backward(payload);
    forward_frame(circ->prev_peer, circ->prev_id, std::move(frame));
    return;
  }
  circ->crypto->crypt_forward(payload);
  if (circ->crypto->check_forward(payload)) {
    obs::trace(obs::Ev::CellRecognized, circ_id, node_);
    RelayCell rc;
    try {
      rc = RelayCell::unpack(payload);
    } catch (const util::ParseError&) {
      destroy_circuit(key, true, true);
      return;
    }
    handle_recognized(key, *circ, rc);
    // The cell ends here: its frame carries the next one this relay sends.
    frames_.give(std::move(frame));
    return;
  }
  if (circ->next.has_value()) {
    forward_frame(circ->next->first, circ->next->second, std::move(frame));
    return;
  }
  if (circ->spliced.has_value()) {
    // Rendezvous splice: inject into the mate circuit toward its origin.
    Circuit* mate = find_circuit(*circ->spliced);
    if (mate != nullptr) {
      mate->crypto->crypt_backward(payload);
      forward_frame(mate->prev_peer, mate->prev_id, std::move(frame));
    }
    return;
  }
  // Unrecognized at an edge with nowhere to go: protocol violation.
  obs::trace(obs::Ev::CellUnrecognized, circ_id, node_, /*ok=*/false);
  destroy_circuit(key, true, true);
}

void Router::handle_recognized(const Key& key, Circuit& circ, const RelayCell& rc) {
  switch (rc.relay_cmd) {
    case RelayCommand::Extend: on_extend(key, circ, rc); break;
    case RelayCommand::Begin: on_begin(key, circ, rc); break;
    case RelayCommand::Data:
    case RelayCommand::End:
    case RelayCommand::SendmeStream:
    case RelayCommand::SendmeCircuit: circ.streams.receive(rc); break;
    case RelayCommand::EstablishIntro: on_establish_intro(key, circ, rc); break;
    case RelayCommand::Introduce1: on_introduce1(rc); break;
    case RelayCommand::EstablishRendezvous:
      on_establish_rendezvous(key, circ, rc);
      break;
    case RelayCommand::Rendezvous1: on_rendezvous1(key, circ, rc); break;
    case RelayCommand::Drop:
      ++counters_.cells_dropped;  // long-range cover traffic ends here
      break;
    default:
      util::log_warn(kComponent, descriptor_.nickname, ": unexpected relay command ",
                     to_string(rc.relay_cmd));
      break;
  }
}

void Router::on_extend(const Key& key, Circuit& circ, const RelayCell& rc) {
  if (circ.next.has_value() || consensus_ == nullptr) {
    destroy_circuit(key, true, false);
    return;
  }
  std::string target_fp;
  util::Bytes skin;
  try {
    util::Reader r(rc.data);
    target_fp = r.str();
    skin = r.blob();
    r.expect_done();
  } catch (const util::ParseError&) {
    destroy_circuit(key, true, false);
    return;
  }
  const RelayDescriptor* target = consensus_->find(target_fp);
  if (target == nullptr) {
    destroy_circuit(key, true, false);
    return;
  }
  CircId& counter = next_circ_id_[target->node];
  const CircId next_id = alloc_circ_id(++counter, node_ < target->node);
  const Key next_key{target->node, next_id};
  pending_extend_[next_key] = key;

  Cell create;
  create.circ_id = next_id;
  create.command = CellCommand::Create;
  create.set_payload(skin);
  send_cell(target->node, create);
}

void Router::on_begin(const Key& key, Circuit& circ, const RelayCell& rc) {
  const StreamId sid = rc.stream_id;
  if (sid == 0 || circ.streams.find(sid) != nullptr) {
    destroy_circuit(key, true, true);
    return;
  }
  Endpoint target;
  try {
    util::Reader r(rc.data);
    target.addr = r.u32();
    target.port = r.u16();
    r.expect_done();
  } catch (const util::ParseError&) {
    destroy_circuit(key, true, true);
    return;
  }

  // Local application? (Bento server, policy-query function, ...)
  if (target.addr == descriptor_.addr) {
    auto app = local_apps_.find(target.port);
    if (app == local_apps_.end()) {
      circ.streams.send_control(RelayCommand::End, sid);
    } else {
      circ.streams.accept(sid, app->second);
    }
    return;
  }

  // Clearnet exit: enforce this relay's exit policy.
  std::optional<sim::NodeId> server;
  if (descriptor_.exit_policy.allows(target)) server = internet_.resolve(target.addr);
  if (!server.has_value()) {
    circ.streams.send_control(RelayCommand::End, sid);
    return;
  }
  // The exit's end of the stream is its TCP connection to the server. The
  // TCP callbacks may hold the stream by reference: a stream ended by the
  // client or with its circuit closes the connection first, and one that
  // ends itself does so only once the connection has ended.
  StreamTable& streams = circ.streams;
  Stream& stream = streams.add(sid);
  TcpClient::Callbacks cbs;
  cbs.on_open = [&streams, sid] { streams.send_control(RelayCommand::Connected, sid); };
  cbs.on_data = [&stream](util::ByteView data) {
    stream.send(util::Bytes(data.begin(), data.end()));
  };
  cbs.on_end = [&stream] { stream.end(); };
  const std::uint64_t conn = tcp_.open(*server, target.port, std::move(cbs));
  stream.set_on_data([this, conn](util::ByteView data) { tcp_.send(conn, data); });
  stream.set_on_end([this, conn] { tcp_.close(conn); });
}

void Router::on_establish_intro(const Key& key, Circuit& circ, const RelayCell& rc) {
  circ.intro_auth.assign(rc.data.begin(), rc.data.end());
  intro_points_[circ.intro_auth] = key;
  RelayCell ack;
  ack.relay_cmd = RelayCommand::IntroEstablished;
  send_backward(circ, ack);
}

void Router::on_introduce1(const RelayCell& rc) {
  util::Bytes auth;
  util::Bytes blob;
  try {
    util::Reader r(rc.data);
    auth = r.blob();
    blob = r.blob();
    r.expect_done();
  } catch (const util::ParseError&) {
    return;
  }
  auto it = intro_points_.find(auth);
  if (it == intro_points_.end()) return;
  Circuit* service_circ = find_circuit(it->second);
  if (service_circ == nullptr) return;
  RelayCell intro2;
  intro2.relay_cmd = RelayCommand::Introduce2;
  intro2.data = blob;
  send_backward(*service_circ, intro2);
}

void Router::on_establish_rendezvous(const Key& key, Circuit& circ,
                                     const RelayCell& rc) {
  circ.rend_cookie.assign(rc.data.begin(), rc.data.end());
  rend_points_[circ.rend_cookie] = key;
  RelayCell ack;
  ack.relay_cmd = RelayCommand::RendezvousEstablished;
  send_backward(circ, ack);
}

void Router::on_rendezvous1(const Key& key, Circuit& circ, const RelayCell& rc) {
  util::Bytes cookie;
  util::Bytes reply;
  try {
    util::Reader r(rc.data);
    cookie = r.blob();
    reply = r.blob();
    r.expect_done();
  } catch (const util::ParseError&) {
    return;
  }
  auto it = rend_points_.find(cookie);
  if (it == rend_points_.end()) return;
  const Key client_key = it->second;
  rend_points_.erase(it);
  Circuit* client_circ = find_circuit(client_key);
  if (client_circ == nullptr) return;

  client_circ->spliced = key;
  circ.spliced = client_key;

  RelayCell rend2;
  rend2.relay_cmd = RelayCommand::Rendezvous2;
  rend2.data = reply;
  send_backward(*client_circ, rend2);
}

void Router::send_backward(Circuit& circ, const RelayCell& rc) {
  send_backward(circ, rc, frames_.take());
}

BENTO_HOT void Router::send_backward(Circuit& circ, const RelayCell& rc, util::Bytes frame) {
  const PayloadSpan payload = frame_payload(frame);
  rc.pack_into(payload);
  circ.crypto->seal_backward(payload);
  circ.crypto->crypt_backward(payload);
  set_frame_header(frame, circ.prev_id, CellCommand::Relay);
  net_.send(node_, circ.prev_peer, std::move(frame));
}

void Router::handle_destroy(sim::NodeId from, const Cell& cell) {
  const Key key{from, cell.circ_id};
  Circuit* circ = find_circuit(key);
  if (circ == nullptr) return;
  const bool from_prev = (from == circ->prev_peer && cell.circ_id == circ->prev_id);
  destroy_circuit(key, /*notify_prev=*/!from_prev, /*notify_next=*/from_prev);
}

void Router::destroy_circuit(const Key& key, bool notify_prev, bool notify_next) {
  auto it = circuits_.find(key);
  if (it == circuits_.end()) return;
  std::shared_ptr<Circuit> circ = it->second;

  circ->streams.close_all();

  if (!circ->intro_auth.empty()) intro_points_.erase(circ->intro_auth);
  if (!circ->rend_cookie.empty()) rend_points_.erase(circ->rend_cookie);

  if (notify_prev) {
    Cell destroy;
    destroy.circ_id = circ->prev_id;
    destroy.command = CellCommand::Destroy;
    send_cell(circ->prev_peer, destroy);
  }
  if (notify_next && circ->next.has_value()) {
    Cell destroy;
    destroy.circ_id = circ->next->second;
    destroy.command = CellCommand::Destroy;
    send_cell(circ->next->first, destroy);
  }

  // A spliced rendezvous mate is useless without us: tear it down too so
  // both origins observe the end of the joined circuit.
  if (circ->spliced.has_value()) {
    const Key mate_key = *circ->spliced;
    circ->spliced.reset();
    Circuit* mate = find_circuit(mate_key);
    if (mate != nullptr) {
      mate->spliced.reset();  // break the back-reference before recursing
      destroy_circuit(mate_key, true, true);
    }
  }

  circuits_.erase(Key{circ->prev_peer, circ->prev_id});
  if (circ->next.has_value()) circuits_.erase(*circ->next);
}

void Router::on_peer_down(sim::NodeId peer) {
  // Classify via the circuit's own endpoints, not the map key: each circuit
  // appears under both its prev and next keys. Collect first — teardown
  // cascades (splices) mutate circuits_.
  std::vector<std::pair<Key, bool>> doomed;  // key, dead peer was prev side
  for (auto& [key, circ] : circuits_) {
    if (key != Key{circ->prev_peer, circ->prev_id}) continue;  // dedupe
    if (circ->prev_peer == peer) {
      doomed.emplace_back(key, true);
    } else if (circ->next.has_value() && circ->next->first == peer) {
      doomed.emplace_back(key, false);
    }
  }
  for (const auto& [key, prev_died] : doomed) {
    if (find_circuit(key) == nullptr) continue;  // cascaded away already
    util::log_info(kComponent, "peer ", peer,
                   " down; destroying circuit (", key.first, ",", key.second, ")");
    // Notify only the surviving side; sending toward the corpse is pointless.
    destroy_circuit(key, /*notify_prev=*/!prev_died, /*notify_next=*/prev_died);
  }
  // Extends awaiting a CREATED from the dead peer will never hear back.
  std::vector<Key> dead_extends;
  for (const auto& [next_key, prev_key] : pending_extend_) {
    if (next_key.first == peer) dead_extends.push_back(next_key);
  }
  for (const Key& next_key : dead_extends) {
    auto it = pending_extend_.find(next_key);
    if (it == pending_extend_.end()) continue;
    const Key prev_key = it->second;
    pending_extend_.erase(it);
    if (find_circuit(prev_key) != nullptr) {
      destroy_circuit(prev_key, /*notify_prev=*/true, /*notify_next=*/false);
    }
  }
}

void Router::crash() {
  // Drop everything silently. Local apps still learn their streams died —
  // that models the process on the same host observing the crash — but no
  // cells leave this node.
  auto doomed = std::move(circuits_);
  circuits_.clear();
  for (auto& [key, circ] : doomed) {
    if (key != Key{circ->prev_peer, circ->prev_id}) continue;  // dedupe
    circ->streams.close_all();
  }
  pending_extend_.clear();
  intro_points_.clear();
  rend_points_.clear();
}

}  // namespace bento::tor
