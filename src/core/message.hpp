// Bento wire protocol, spoken over Tor streams between a Bento client and
// a Bento server (paper §5.2-5.3).
//
// Transport: Tor streams deliver byte chunks (the stream layer re-chunks
// into 498-byte cells), so messages are framed as u32 length + body; the
// StreamFramer reassembles. Message bodies are typed unions serialized
// with the repo's big-endian Writer/Reader.
//
// A Message holds views, never bytes of its own: a sender points it at the
// bytes it already has and frames it once; a receiver gets it parsed in
// place over the framer's buffer.
//
// Handshake messages carry the attested secure-channel material when the
// python-op-sgx image is used; upload bodies then travel sealed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "tor/address.hpp"
#include "util/bytes.hpp"
#include "util/serialize.hpp"

namespace bento::core {

/// The port a Bento server listens on at every box, and the one a client
/// dials unless told otherwise.
inline constexpr tor::Port kBentoPort = 5577;

enum class MsgType : std::uint8_t {
  // Client -> server.
  GetPolicy = 1,
  Spawn = 2,        // image name [+ channel hello for SGX image]
  Upload = 3,       // container id + (sealed) {source, manifest, args}
  Invoke = 4,       // invocation token + payload
  Shutdown = 5,     // shutdown token
  // Server -> client.
  PolicyReply = 16,
  SpawnReply = 17,  // container id [+ channel accept + stapled IAS report]
  UploadReply = 18, // (sealed) token pair
  Output = 19,      // function output payload
  Ok = 20,
  Error = 21,
};

/// One protocol message. Its fields view bytes owned elsewhere: an outgoing
/// message's must outlive StreamFramer::frame(), a received one's live in
/// the framer (see StreamFramer::next).
struct Message {
  MsgType type = MsgType::Ok;
  std::uint64_t container_id = 0;
  std::string_view text;   // image name / error text
  util::ByteView blob;     // main payload (policy, sealed upload, output...)
  util::ByteView blob2;    // secondary (channel hello/accept, IAS report)
  util::ByteView token;    // invocation/shutdown token
};

/// Length-prefixed framing over a byte stream.
class StreamFramer {
 public:
  /// `max_frame` caps the body length a frame header may announce; the
  /// default admits any u32 length.
  explicit StreamFramer(std::uint64_t max_frame = UINT32_MAX) : max_frame_(max_frame) {}

  /// Encodes one message as a frame: the length prefix and the body,
  /// written once into a buffer of exactly the frame's size.
  static util::Bytes frame(const Message& msg);

  /// Buffers received bytes. Invalidates every message next() handed out.
  void append(util::ByteView data);

  /// Parses the next complete frame in place; nullopt until one is
  /// buffered. The message views the framer's buffer and is valid until the
  /// next append() or the framer's destruction, so a caller whose handler
  /// may drop the framer takes one message at a time and checks the framer
  /// is still there before asking for the next. Throws util::ParseError on
  /// a malformed message, or as soon as a header announces a body longer
  /// than max_frame, without waiting for that body; the framer must then be
  /// dropped.
  std::optional<Message> next();

  /// append(), then every complete message: the batch form, for callers
  /// that handle none of them before the last is parsed.
  std::vector<Message> feed(util::ByteView data);

 private:
  std::uint64_t max_frame_;
  util::Bytes buffer_;
  std::size_t consumed_ = 0;  // prefix of buffer_ already handed out
};

/// Payload of an Upload message (sealed when a secure channel is active).
struct UploadBody {
  util::Bytes manifest;  // FunctionManifest::serialize()
  std::string source;    // BentoScript source ("" for native functions)
  std::string native;    // registered native function name ("" for script)
  util::Bytes args;      // opaque install arguments handed to the function

  util::Bytes serialize() const;
  static UploadBody deserialize(util::ByteView data);
};

/// Payload of an UploadReply (sealed when a secure channel is active).
struct UploadReplyBody {
  util::Bytes invocation_token;
  util::Bytes shutdown_token;

  util::Bytes serialize() const;
  static UploadReplyBody deserialize(util::ByteView data);
};

}  // namespace bento::core
