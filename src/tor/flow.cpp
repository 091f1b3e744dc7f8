#include "tor/flow.hpp"

#include <algorithm>
#include <cstring>

#include "util/annotations.hpp"

namespace bento::tor {

BENTO_HOT void ByteQueue::push(util::Bytes data) {
  if (data.empty()) return;
  if (head_ > 0 && segments_.size() == segments_.capacity()) {
    segments_.erase(segments_.begin(), segments_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  total_ += data.size();
  // bentolint: allow(BL102 amortized growth to the deepest backlog; a warm batch never repeats it)
  segments_.push_back(std::move(data));
}

BENTO_HOT std::size_t ByteQueue::pop(std::span<std::uint8_t> out) {
  std::size_t filled = 0;
  while (filled < out.size() && total_ > 0) {
    util::Bytes& front = segments_[head_];
    const std::size_t take = std::min(front.size() - head_offset_, out.size() - filled);
    std::memcpy(out.data() + filled, front.data() + head_offset_, take);
    filled += take;
    head_offset_ += take;
    total_ -= take;
    if (head_offset_ == front.size()) {
      front = util::Bytes();  // the message is fully sent: release its buffer
      head_offset_ = 0;
      if (++head_ == segments_.size()) {
        segments_.clear();
        head_ = 0;
      }
    }
  }
  return filled;
}

void Stream::send(util::Bytes data) {
  if (table_ == nullptr) return;
  outbuf_.push(std::move(data));
  table_->pump(*this);
}

void Stream::end() {
  if (table_ == nullptr) return;
  end_after_flush_ = true;
  table_->pump(*this);
}

Stream* StreamTable::find(StreamId sid) {
  auto it = streams_.find(sid);
  return it == streams_.end() ? nullptr : it->second.get();
}

Stream& StreamTable::add(StreamId sid, Stream::Callbacks cbs) {
  auto stream = std::make_unique<Stream>();
  stream->table_ = this;
  stream->id_ = sid;
  stream->cbs_ = std::move(cbs);
  Stream& out = *stream;
  streams_[sid] = std::move(stream);
  return out;
}

void StreamTable::accept(StreamId sid, const StreamAcceptor& acceptor) {
  if (!acceptor || sid == 0 || streams_.contains(sid)) {
    send_control(RelayCommand::End, sid);
    return;
  }
  if (!acceptor(add(sid))) {
    streams_.erase(sid);
    send_control(RelayCommand::End, sid);
    return;
  }
  send_control(RelayCommand::Connected, sid);
}

void StreamTable::send_control(RelayCommand cmd, StreamId sid) {
  RelayCell rc;
  rc.relay_cmd = cmd;
  rc.stream_id = sid;
  send_(frames_.take(), rc);
}

void StreamTable::pump(Stream& stream) {
  while (!stream.outbuf_.empty() && stream.package_window_ > 0 && package_window_ > 0) {
    // The data goes from the stream's queue straight into the frame.
    util::Bytes frame = frames_.take();
    const PayloadSpan payload = frame_payload(frame);
    const std::size_t n = stream.outbuf_.pop(payload.subspan(kRelayHeaderLen));
    RelayCell data;
    data.relay_cmd = RelayCommand::Data;
    data.stream_id = stream.id_;
    data.data = payload.subspan(kRelayHeaderLen, n);
    stream.package_window_--;
    package_window_--;
    send_(std::move(frame), data);
  }
  if (stream.outbuf_.empty() && stream.end_after_flush_) {
    send_control(RelayCommand::End, stream.id_);
    stream.table_ = nullptr;
    streams_.erase(stream.id_);  // invalidates `stream`
  }
}

void StreamTable::receive(const RelayCell& rc) {
  switch (rc.relay_cmd) {
    case RelayCommand::Connected: {
      Stream* stream = find(rc.stream_id);
      if (stream != nullptr && stream->cbs_.on_connected) stream->cbs_.on_connected();
      return;
    }
    case RelayCommand::Data:
      if (Stream* stream = receive_data(rc)) deliver(*stream, rc.data);
      return;
    case RelayCommand::End: {
      auto it = streams_.find(rc.stream_id);
      if (it == streams_.end()) return;
      std::unique_ptr<Stream> stream = std::move(it->second);
      streams_.erase(it);
      stream->table_ = nullptr;
      if (stream->cbs_.on_end) stream->cbs_.on_end();
      return;
    }
    // A SENDME answers cells this end sent: one that would lift a window past
    // its initial size is a protocol violation (tor-spec §7.4) and is ignored.
    case RelayCommand::SendmeCircuit:
      if (package_window_ > kCircuitWindowInit - kCircuitWindowIncrement) return;
      package_window_ += kCircuitWindowIncrement;
      // Pump every stream in id order. Pumping may erase the stream it pumps
      // (a flushed END) and no other, so step past it first.
      for (auto it = streams_.begin(); it != streams_.end();) {
        Stream& stream = *(it++)->second;
        pump(stream);
      }
      return;
    case RelayCommand::SendmeStream: {
      Stream* stream = find(rc.stream_id);
      if (stream == nullptr ||
          stream->package_window_ > kStreamWindowInit - kStreamWindowIncrement) {
        return;
      }
      stream->package_window_ += kStreamWindowIncrement;
      pump(*stream);
      return;
    }
    default:
      return;
  }
}

Stream* StreamTable::receive_data(const RelayCell& rc) {
  if (++delivered_ % kCircuitWindowIncrement == 0) {
    send_control(RelayCommand::SendmeCircuit, 0);
  }
  Stream* stream = find(rc.stream_id);
  if (stream == nullptr) return nullptr;
  if (++stream->delivered_ % kStreamWindowIncrement == 0) {
    send_control(RelayCommand::SendmeStream, rc.stream_id);
  }
  return stream;
}

void StreamTable::deliver(Stream& stream, util::ByteView data) {
  if (stream.cbs_.on_data) stream.cbs_.on_data(data);
}

void StreamTable::close_all() {
  // Callbacks may touch the table, so detach every stream before the first
  // one hears of its end.
  auto doomed = std::move(streams_);
  streams_.clear();
  for (auto& [sid, stream] : doomed) stream->table_ = nullptr;
  for (auto& [sid, stream] : doomed) {
    if (stream->cbs_.on_end) stream->cbs_.on_end();
  }
}

}  // namespace bento::tor
