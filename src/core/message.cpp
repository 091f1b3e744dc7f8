#include "core/message.hpp"

#include "util/annotations.hpp"

namespace bento::core {

util::Bytes StreamFramer::frame(const Message& msg) {
  const std::size_t body = 1 + 8 + 4 + msg.text.size() + 4 + msg.blob.size() + 4 +
                           msg.blob2.size() + 4 + msg.token.size();
  util::Writer w;
  w.reserve(4 + body);
  w.u32(static_cast<std::uint32_t>(body));
  w.u8(static_cast<std::uint8_t>(msg.type));
  w.u64(msg.container_id);
  w.str(msg.text);
  w.blob(msg.blob);
  w.blob(msg.blob2);
  w.blob(msg.token);
  return std::move(w).take();
}

BENTO_HOT void StreamFramer::append(util::ByteView data) {
  if (consumed_ > 0) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  // bentolint: allow(BL102 amortized growth to the largest frame; a warm batch never repeats it)
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

BENTO_HOT std::optional<Message> StreamFramer::next() {
  const util::ByteView pending = util::ByteView(buffer_).subspan(consumed_);
  if (pending.size() < 4) return std::nullopt;
  util::Reader header(pending.first(4));
  const std::uint32_t len = header.u32();
  if (len > max_frame_) {
    throw util::ParseError("frame announces " + std::to_string(len) + " bytes, over the " +
                           std::to_string(max_frame_) + "-byte cap");
  }
  if (pending.size() - 4 < len) return std::nullopt;
  util::Reader r(pending.subspan(4, len));
  Message m;
  m.type = static_cast<MsgType>(r.u8());
  m.container_id = r.u64();
  const util::ByteView text = r.blob_view();
  m.text = std::string_view(reinterpret_cast<const char*>(text.data()), text.size());
  m.blob = r.blob_view();
  m.blob2 = r.blob_view();
  m.token = r.blob_view();
  r.expect_done();
  consumed_ += 4 + len;
  return m;
}

std::vector<Message> StreamFramer::feed(util::ByteView data) {
  append(data);
  std::vector<Message> out;
  while (std::optional<Message> m = next()) out.push_back(*m);
  return out;
}

util::Bytes UploadBody::serialize() const {
  util::Writer w;
  w.blob(manifest);
  w.str(source);
  w.str(native);
  w.blob(args);
  return std::move(w).take();
}

UploadBody UploadBody::deserialize(util::ByteView data) {
  util::Reader r(data);
  UploadBody b;
  b.manifest = r.blob();
  b.source = r.str();
  b.native = r.str();
  b.args = r.blob();
  r.expect_done();
  return b;
}

util::Bytes UploadReplyBody::serialize() const {
  util::Writer w;
  w.blob(invocation_token);
  w.blob(shutdown_token);
  return std::move(w).take();
}

UploadReplyBody UploadReplyBody::deserialize(util::ByteView data) {
  util::Reader r(data);
  UploadReplyBody b;
  b.invocation_token = r.blob();
  b.shutdown_token = r.blob();
  r.expect_done();
  return b;
}

}  // namespace bento::core
