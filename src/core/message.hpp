// Bento wire protocol, spoken over Tor streams between a Bento client and
// a Bento server (paper §5.2-5.3).
//
// Transport: Tor streams deliver byte chunks (the stream layer re-chunks
// into 498-byte cells), so messages are framed as u32 length + body; the
// StreamFramer reassembles. Message bodies are typed unions serialized
// with the repo's big-endian Writer/Reader.
//
// Handshake messages carry the attested secure-channel material when the
// python-op-sgx image is used; upload bodies then travel sealed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/serialize.hpp"

namespace bento::core {

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

struct Message {
  MsgType type = MsgType::Ok;
  std::uint64_t container_id = 0;
  std::string text;        // image name / error text
  util::Bytes blob;        // main payload (policy, sealed upload, output...)
  util::Bytes blob2;       // secondary (channel hello/accept, IAS report)
  util::Bytes token;       // invocation/shutdown token

  util::Bytes serialize() const;
  static Message deserialize(util::ByteView data);
};

/// Length-prefixed framing over a byte stream.
class StreamFramer {
 public:
  /// `max_frame` caps the body length a frame header may announce; the
  /// default admits any u32 length.
  explicit StreamFramer(std::uint64_t max_frame = UINT32_MAX) : max_frame_(max_frame) {}

  /// Encodes one message as a frame.
  static util::Bytes frame(const Message& msg);

  /// Feeds received bytes; returns every completed message. Throws
  /// util::ParseError on a malformed message, or as soon as a header
  /// announces a body longer than max_frame, without waiting for that body;
  /// the framer must then be dropped.
  std::vector<Message> feed(util::ByteView data);

 private:
  std::uint64_t max_frame_;
  util::Bytes buffer_;
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
