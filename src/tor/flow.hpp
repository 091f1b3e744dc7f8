// Tor streams and their flow control (tor-spec §7.3/7.4), one implementation
// for both circuit ends.
//
// Windows are counted in RELAY_DATA cells. Each endpoint starts with the
// init window, decrements as it packages cells, and stops when it reaches
// zero; the receiving edge returns a SENDME for every `increment` cells it
// delivers, crediting the window.
//
// A StreamTable holds the streams of one circuit end together with the
// circuit's windows and theirs. It packages DATA cells while both package
// windows allow, counts delivered DATA and returns SENDMEs, answers BEGIN
// with CONNECTED or END, handles a remote END and ends every stream when the
// circuit goes. The end supplies only how a relay cell leaves: an origin
// seals it for its last hop (CircuitOrigin), a relay for the origin (Router).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "tor/cell.hpp"
#include "tor/wire.hpp"
#include "util/bytes.hpp"

namespace bento::tor {

inline constexpr int kStreamWindowInit = 500;
inline constexpr int kStreamWindowIncrement = 50;
inline constexpr int kCircuitWindowInit = 1000;
inline constexpr int kCircuitWindowIncrement = 100;

/// FIFO of byte buffers awaiting window credit. It keeps the buffers it is
/// given and pop() copies straight into the caller's cell payload, so a
/// queued message is never copied or re-chunked into buffers of its own.
class ByteQueue {
 public:
  void push(util::Bytes data);
  /// Moves up to out.size() bytes into `out`; returns how many (fewer only
  /// if the queue is shorter).
  std::size_t pop(std::span<std::uint8_t> out);
  bool empty() const { return total_ == 0; }
  std::size_t size() const { return total_; }

 private:
  // Live segments are segments_[head_..]; the drained prefix is reclaimed
  // when the queue empties or the vector is full, so a warm queue's storage
  // is reused.
  std::vector<util::Bytes> segments_;
  std::size_t head_ = 0;
  std::size_t head_offset_ = 0;  // consumed prefix of segments_[head_]
  std::size_t total_ = 0;
};

class CircuitOrigin;
class StreamTable;

/// One end of a Tor stream: a client's, a hidden service's, a relay's local
/// application's or a clearnet exit's. Owned by its StreamTable; valid until
/// on_end fires, its own end() has flushed, or the circuit is destroyed.
class Stream {
 public:
  struct Callbacks {
    std::function<void()> on_connected;
    std::function<void(util::ByteView)> on_data;
    std::function<void()> on_end;
  };

  StreamId id() const { return id_; }

  /// Queues data (chunked into DATA cells, window-limited). The buffer is
  /// kept as it is until its last byte is packed.
  void send(util::Bytes data);
  /// Sends RELAY_END once buffered data drains.
  void end();

  void set_on_connected(std::function<void()> fn) { cbs_.on_connected = std::move(fn); }
  void set_on_data(std::function<void(util::ByteView)> fn) { cbs_.on_data = std::move(fn); }
  void set_on_end(std::function<void()> fn) { cbs_.on_end = std::move(fn); }

 private:
  friend class StreamTable;
  friend class CircuitOrigin;  // its sim-time telemetry below
  StreamTable* table_ = nullptr;
  StreamId id_ = 0;
  Callbacks cbs_;
  int package_window_ = kStreamWindowInit;
  int delivered_ = 0;  // DATA cells handed to on_data
  ByteQueue outbuf_;
  bool end_after_flush_ = false;
  // Sim-time telemetry of an origin's stream (micros; -1 = not yet). TTFB
  // and TTLB land in the trace and the tor.stream_ttfb_us histogram.
  std::int64_t opened_us = -1;
  std::int64_t first_byte_us = -1;
  std::int64_t last_byte_us = -1;
};

/// Decides a stream a BEGIN asks for: return false to refuse it (the other
/// end sees RELAY_END). Hidden services and a relay's local applications
/// accept through one.
using StreamAcceptor = std::function<bool(Stream&)>;

class StreamTable {
 public:
  /// Sends a relay cell packed into `frame`, a frame from the end's pool
  /// whose payload may already hold rc.data.
  using SendFn = std::function<void(util::Bytes frame, const RelayCell& rc)>;

  StreamTable(FramePool& frames, SendFn send)
      : frames_(frames), send_(std::move(send)) {}
  StreamTable(const StreamTable&) = delete;
  StreamTable& operator=(const StreamTable&) = delete;

  Stream* find(StreamId sid);
  /// Adds a stream under `sid`, which must be unused.
  Stream& add(StreamId sid, Stream::Callbacks cbs = {});

  /// Answers a BEGIN for `sid`: a new stream goes to `acceptor`, and
  /// CONNECTED goes back if it takes the stream. END goes back instead (and
  /// the stream is dropped) if the id is 0 or in use, there is no acceptor
  /// or it refuses.
  void accept(StreamId sid, const StreamAcceptor& acceptor);
  /// Sends a relay cell without a body for `sid`: END refusing a BEGIN, or
  /// CONNECTED once an exit's TCP connection opens.
  void send_control(RelayCommand cmd, StreamId sid);

  /// Handles CONNECTED, DATA, END and both SENDMEs; ignores other commands.
  void receive(const RelayCell& rc);
  /// The DATA half of receive(), split so an origin can time the delivery:
  /// counts the cell against the circuit's and its stream's receive windows,
  /// sending a SENDME every increment, and returns the stream to deliver()
  /// rc.data to, or nullptr if it is gone.
  Stream* receive_data(const RelayCell& rc);
  void deliver(Stream& stream, util::ByteView data);

  /// The circuit is gone: every stream ends (its on_end fires) and no cell
  /// is sent.
  void close_all();

 private:
  friend class Stream;
  /// Packs queued data into DATA cells while both package windows allow;
  /// once a stream that asked to end has drained, sends END and drops it.
  void pump(Stream& stream);

  FramePool& frames_;
  SendFn send_;
  std::map<StreamId, std::unique_ptr<Stream>> streams_;
  int package_window_ = kCircuitWindowInit;
  int delivered_ = 0;  // DATA cells received on the circuit
};

}  // namespace bento::tor
