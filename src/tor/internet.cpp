#include "tor/internet.hpp"

#include "util/serialize.hpp"

namespace bento::tor {

void Internet::register_server(Addr addr, sim::NodeId node) { servers_[addr] = node; }

std::optional<sim::NodeId> Internet::resolve(Addr addr) const {
  auto it = servers_.find(addr);
  if (it == servers_.end()) return std::nullopt;
  return it->second;
}

util::Bytes TcpMsg::pack() const {
  util::Writer w;
  w.reserve(1 + 8 + 2 + 4 + payload.size());
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(conn_id);
  w.u16(dst_port);
  w.blob(payload);
  return std::move(w).take();
}

TcpMsg TcpMsg::unpack(util::ByteView wire) {
  util::Reader r(wire);
  TcpMsg m;
  m.type = static_cast<TcpMsgType>(r.u8());
  m.conn_id = r.u64();
  m.dst_port = r.u16();
  m.payload = r.blob_view();
  r.expect_done();
  return m;
}

std::uint64_t TcpClient::open(sim::NodeId server, Port port, Callbacks cbs) {
  const std::uint64_t id = next_id_++;
  conns_[id] = Conn{server, std::move(cbs)};
  TcpMsg m;
  m.type = TcpMsgType::Open;
  m.conn_id = id;
  m.dst_port = port;
  net_.send(node_, server, m.pack());
  return id;
}

void TcpClient::send(std::uint64_t conn_id, util::ByteView data) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  TcpMsg m;
  m.type = TcpMsgType::Data;
  m.conn_id = conn_id;
  m.payload = data;
  net_.send(node_, it->second.server, m.pack());
}

void TcpClient::close(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  TcpMsg m;
  m.type = TcpMsgType::End;
  m.conn_id = conn_id;
  net_.send(node_, it->second.server, m.pack());
  conns_.erase(it);
}

void TcpClient::on_message(sim::NodeId from, const TcpMsg& msg) {
  auto it = conns_.find(msg.conn_id);
  if (it == conns_.end() || it->second.server != from) return;
  Conn& conn = it->second;
  switch (msg.type) {
    case TcpMsgType::OpenAck:
      if (conn.cbs.on_open) conn.cbs.on_open();
      break;
    case TcpMsgType::Data:
      if (conn.cbs.on_data) conn.cbs.on_data(msg.payload);
      break;
    case TcpMsgType::End: {
      auto cb = std::move(conn.cbs.on_end);
      conns_.erase(it);
      if (cb) cb();
      break;
    }
    case TcpMsgType::Open:
      break;  // servers never Open toward clients
  }
}

int slow_start_rounds(std::size_t bytes) {
  if (bytes <= kInitCwndBytes) return 0;
  // cwnd doubles each RTT: after r rounds the sender has shipped
  // init_cwnd * (2^(r+1) - 1) bytes.
  int rounds = 0;
  std::size_t shipped = kInitCwndBytes;
  std::size_t cwnd = kInitCwndBytes;
  while (shipped < bytes && rounds < 40) {
    cwnd *= 2;
    shipped += cwnd;
    ++rounds;
  }
  return rounds;
}

void WebServer::on_message(sim::NodeId from, util::Bytes data) {
  const TcpMsg msg = TcpMsg::unpack(data);
  const ConnKey conn{from, msg.conn_id};
  switch (msg.type) {
    case TcpMsgType::Open: {
      TcpMsg ack;
      ack.type = TcpMsgType::OpenAck;
      ack.conn_id = msg.conn_id;
      net_.send(node(), from, ack.pack());
      partial_[conn];
      break;
    }
    case TcpMsgType::Data:
      on_conn_data(conn, msg.payload);
      break;
    case TcpMsgType::End:
      partial_.erase(conn);
      break;
    case TcpMsgType::OpenAck:
      break;
  }
}

void WebServer::reply_data(const ConnKey& conn, util::ByteView data) {
  TcpMsg m;
  m.type = TcpMsgType::Data;
  m.conn_id = conn.second;
  m.payload = data;
  net_.send(node(), conn.first, m.pack());
}

void WebServer::reply_end(const ConnKey& conn) {
  TcpMsg m;
  m.type = TcpMsgType::End;
  m.conn_id = conn.second;
  net_.send(node(), conn.first, m.pack());
}

void WebServer::set_think_time(util::Duration min, util::Duration max,
                               std::uint64_t seed) {
  think_min_ = min;
  think_max_ = max;
  think_rng_ = util::Rng(seed);
}

void WebServer::on_conn_data(const ConnKey& conn, util::ByteView data) {
  std::string& buf = partial_[conn];
  buf.append(data.begin(), data.end());
  const auto nl = buf.find('\n');
  if (nl == std::string::npos) return;
  std::string line = buf.substr(0, nl);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  buf.erase(0, nl + 1);

  std::string path = "/";
  if (line.rfind("GET ", 0) == 0) path = line.substr(4);

  ++requests_;
  std::optional<util::Bytes> body = content_(path);
  if (!body.has_value()) {
    reply_data(conn, util::to_bytes("404 not found\n"));
    reply_end(conn);
    return;
  }

  // First byte waits out the handshake + slow-start rounds; the network
  // links then pace the chunk train at the bottleneck bandwidth.
  const util::Duration rtt = net_.latency(node(), conn.first) * 2.0;
  const int rounds = slow_start_ ? slow_start_rounds(body->size()) : 0;
  util::Duration first_byte_delay = rtt * (1.0 + static_cast<double>(rounds));
  if (think_max_ > think_min_) {
    const auto span = static_cast<std::uint64_t>(
        (think_max_ - think_min_).count_micros());
    first_byte_delay = first_byte_delay + think_min_ +
                       util::Duration::micros(static_cast<std::int64_t>(
                           think_rng_.uniform(0, span)));
  }

  sim_.after(first_byte_delay, [this, conn, body = std::move(*body)]() mutable {
    constexpr std::size_t kChunk = 8192;
    std::size_t off = 0;
    while (off < body.size()) {
      const std::size_t n = std::min(kChunk, body.size() - off);
      reply_data(conn, util::ByteView(body).subspan(off, n));
      off += n;
    }
    reply_end(conn);
  });
}

}  // namespace bento::tor
