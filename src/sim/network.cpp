#include "sim/network.hpp"

#include <stdexcept>

#include "util/annotations.hpp"

namespace bento::sim {

namespace {
std::pair<NodeId, NodeId> ordered(NodeId a, NodeId b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}
}  // namespace

Network::Network(Simulator& sim)
    : sim_(sim),
      m_messages_(obs::registry().counter("net.messages")),
      m_bytes_(obs::registry().counter("net.bytes")),
      m_queue_depth_(obs::registry().gauge("net.link_queue_depth")) {}

void Network::check_node(NodeId node) const {
  if (node >= nodes_.size()) throw std::out_of_range("Network: unknown node id");
}

NodeId Network::add_node(const NodeSpec& spec, MessageHandler* handler) {
  if (spec.up_bytes_per_sec <= 0 || spec.down_bytes_per_sec <= 0) {
    throw std::invalid_argument("Network::add_node: non-positive bandwidth");
  }
  const NodeId id = static_cast<NodeId>(nodes_.size());
  auto stp = std::make_unique<NodeState>();
  NodeState& st = *stp;
  st.spec = spec;
  st.handler = handler;
  st.up.bytes_per_sec = spec.up_bytes_per_sec;
  st.down.bytes_per_sec = spec.down_bytes_per_sec;
  st.up.high_water = &st.stats.up_queue_high_water;
  st.down.high_water = &st.stats.down_queue_high_water;
  st.up.uplink = true;
  nodes_.push_back(std::move(stp));
  return id;
}

void Network::attach(NodeId node, MessageHandler* handler) {
  check_node(node);
  nodes_[node]->handler = handler;
}

void Network::set_latency(NodeId a, NodeId b, Duration latency) {
  check_node(a);
  check_node(b);
  latency_[ordered(a, b)] = latency;
  // Nodes that already exchanged traffic cached the old value.
  for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    for (PeerQueue& q : nodes_[from]->up.peers) {
      if (q.peer == to) q.latency = latency;
    }
  }
}

void Network::set_default_latency(Duration d) {
  default_latency_ = d;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    for (PeerQueue& q : nodes_[n]->up.peers) {
      q.latency = latency(static_cast<NodeId>(n), q.peer);
    }
  }
}

Duration Network::latency(NodeId a, NodeId b) const {
  auto it = latency_.find(ordered(a, b));
  return it == latency_.end() ? default_latency_ : it->second;
}

BENTO_HOT void Network::send(NodeId from, NodeId to, util::Bytes payload) {
  check_node(from);
  check_node(to);
  NodeState& src = *nodes_[from];
  src.stats.bytes_sent += payload.size();
  src.stats.messages_sent += 1;
  m_messages_.inc();
  m_bytes_.inc(payload.size());
  Packet pkt;
  pkt.from = from;
  pkt.to = to;
  pkt.payload = std::move(payload);
  pkt.wire_size = pkt.payload.size() + kMessageOverhead;
  pkt.ctx = obs::current_span();
  bool duplicate = false;
  if (chaos_ != nullptr) {
    // Packets to or from a crashed node vanish at the sender's NIC.
    if (chaos_->node_down(from) || chaos_->node_down(to)) return;
    const FaultDecision verdict = chaos_->on_packet(from, to, pkt.wire_size);
    if (verdict.drop) return;
    pkt.chaos_delay = verdict.extra_delay;
    duplicate = verdict.duplicate;
  }
  // The duplicate is cloned before the link span opens so the two copies
  // never share (and double-close) one span id; the clone rides untraced.
  Packet dup_pkt;
  if (duplicate) dup_pkt = pkt;
  if (pkt.ctx.active()) {
    pkt.link_span = obs::open_span(obs::Stage::NetLink, to);
    if (pkt.link_span != 0) {
      obs::span_note(pkt.link_span, obs::kNoteWireBytes,
                     static_cast<std::uint32_t>(pkt.wire_size));
      // Budget notes for the offline critical-path analyzer: the span's
      // measured duration minus these is pure queue wait. Each serialization
      // leg is truncated to µs separately, exactly like the legs serve()
      // schedules, so budget <= measured always holds. Downlink bandwidth is
      // sampled at send time; a throttle landing mid-flight shifts the
      // difference into the queue segment, never breaking the sum.
      const NodeState& dst = *nodes_[to];
      const auto wire = static_cast<double>(pkt.wire_size);
      const Duration spec_ser =
          Duration::seconds(wire / src.spec.up_bytes_per_sec) +
          Duration::seconds(wire / dst.spec.down_bytes_per_sec);
      const Duration idle = spec_ser + latency(from, to);
      obs::span_note(pkt.link_span, obs::kNoteLinkIdle,
                     static_cast<std::uint32_t>(idle.count_micros()));
      const Duration cur_ser = Duration::seconds(wire / src.up.bytes_per_sec) +
                               Duration::seconds(wire / dst.down.bytes_per_sec);
      const Duration dwell = cur_ser - spec_ser + pkt.chaos_delay;
      if (dwell.count_micros() > 0) {
        obs::span_note(pkt.link_span, obs::kNoteChaosDwell,
                       static_cast<std::uint32_t>(dwell.count_micros()));
      }
    }
  }
  enqueue(src.up, to, std::move(pkt));
  if (duplicate) enqueue(src.up, to, std::move(dup_pkt));
}

void Network::set_bandwidth_scale(NodeId node, double scale) {
  check_node(node);
  if (scale <= 0) throw std::invalid_argument("set_bandwidth_scale: non-positive");
  NodeState& st = *nodes_[node];
  st.up.bytes_per_sec = st.spec.up_bytes_per_sec * scale;
  st.down.bytes_per_sec = st.spec.down_bytes_per_sec * scale;
}

void Network::notify_peer_down(NodeId down) {
  check_node(down);
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    const NodeId id = static_cast<NodeId>(n);
    if (id == down || nodes_[n]->handler == nullptr) continue;
    sim_.after(latency(id, down), [this, id, down] {
      MessageHandler* handler = nodes_[id]->handler;
      if (handler != nullptr) handler->on_peer_down(down);
    });
  }
}

Duration Network::idle_delay(NodeId from, NodeId to, std::size_t bytes) const {
  check_node(from);
  check_node(to);
  const double wire = static_cast<double>(bytes + kMessageOverhead);
  const double ser_up = wire / nodes_[from]->spec.up_bytes_per_sec;
  const double ser_down = wire / nodes_[to]->spec.down_bytes_per_sec;
  return Duration::seconds(ser_up + ser_down) + latency(from, to);
}

const NodeSpec& Network::spec(NodeId node) const {
  check_node(node);
  return nodes_[node]->spec;
}

const NodeStats& Network::stats(NodeId node) const {
  check_node(node);
  return nodes_[node]->stats;
}

BENTO_HOT void Network::enqueue(LinkQueue& lq, NodeId peer, Packet pkt) {
  std::size_t slot = 0;
  while (slot < lq.peers.size() && lq.peers[slot].peer != peer) ++slot;
  if (slot == lq.peers.size()) {
    // bentolint: allow(BL102 grows only on first contact with a new peer)
    PeerQueue& fresh = lq.peers.emplace_back();
    fresh.peer = peer;
    if (lq.uplink) fresh.latency = latency(pkt.from, pkt.to);
  }
  PeerQueue& q = lq.peers[slot];
  if (q.count == q.ring.size()) {
    // Double the ring, oldest packet first. Only a backlog deeper than any
    // this peer has had before grows it, so a warm link never does.
    // bentolint: allow(BL102 amortized ring growth; a warm batch never repeats it)
    std::vector<Packet> grown(q.ring.empty() ? 4 : 2 * q.ring.size());
    for (std::size_t i = 0; i < q.count; ++i) {
      grown[i] = std::move(q.ring[(q.head + i) & (q.ring.size() - 1)]);
    }
    q.ring = std::move(grown);
    q.head = 0;
  }
  q.ring[(q.head + q.count) & (q.ring.size() - 1)] = std::move(pkt);
  q.count += 1;
  lq.queued += 1;
  if (lq.high_water != nullptr && lq.queued > *lq.high_water) {
    *lq.high_water = lq.queued;
  }
  m_queue_depth_.set(static_cast<std::int64_t>(lq.queued));
  if (!lq.busy) serve(lq);
}

BENTO_HOT void Network::serve(LinkQueue& lq) {
  if (lq.queued == 0) return;
  // Round-robin across peers with pending packets.
  for (std::size_t scanned = 0; scanned < lq.peers.size(); ++scanned) {
    if (lq.rr_next >= lq.peers.size()) lq.rr_next = 0;
    const std::size_t slot = lq.rr_next;
    lq.rr_next++;
    PeerQueue& q = lq.peers[slot];
    if (q.count == 0) continue;
    Packet pkt = std::move(q.ring[q.head]);
    q.head = (q.head + 1) & (q.ring.size() - 1);
    q.count -= 1;
    lq.queued -= 1;
    lq.busy = true;
    const Duration ser =
        Duration::seconds(static_cast<double>(pkt.wire_size) / lq.bytes_per_sec);
    // The completion event fires under whatever context was current when
    // the link went busy — which, on a contended link, belongs to an
    // unrelated flow. Restore this packet's own context around the hand-off
    // so downstream work (including the propagation event an uplink
    // schedules) stays on the right causal chain.
    sim_.after(ser, [this, &lq, slot, pkt = std::move(pkt)]() mutable {
      lq.busy = false;
      const obs::SpanContext prev = obs::current_span();
      obs::set_current_span(pkt.ctx);
      // Read at completion, not at enqueue: set_latency() may have changed
      // it while the packet was serializing.
      if (lq.uplink) {
        propagate(lq.peers[slot].latency, std::move(pkt));
      } else {
        deliver(std::move(pkt));
      }
      obs::set_current_span(prev);
      serve(lq);
    });
    return;
  }
}

void Network::propagate(Duration latency, Packet&& pkt) {
  sim_.after(latency + pkt.chaos_delay, [this, pkt = std::move(pkt)]() mutable {
    NodeState& dst = *nodes_[pkt.to];
    const NodeId peer = pkt.from;
    enqueue(dst.down, peer, std::move(pkt));
  });
}

// The NetLink span closes here — right at delivery — so its duration is the
// full network transit (queue wait + serialize + propagate); the handler
// runs under the sender's context (restored by serve()), continuing the
// causal chain.
void Network::deliver(Packet&& pkt) {
  NodeState& dst = *nodes_[pkt.to];
  if (chaos_ != nullptr && chaos_->node_down(pkt.to)) {
    // Receiver crashed while the packet was in flight.
    obs::end_span(pkt.link_span, obs::Stage::NetLink, /*ok=*/false);
    return;
  }
  dst.stats.bytes_received += pkt.payload.size();
  dst.stats.messages_received += 1;
  if (monitor_) monitor_(pkt.from, pkt.to, pkt.wire_size);
  obs::end_span(pkt.link_span, obs::Stage::NetLink);
  if (dst.handler != nullptr) {
    dst.handler->on_message(pkt.from, std::move(pkt.payload));
  }
}

}  // namespace bento::sim
