// Message channels. RAVE uses SOAP/XML only for discovery and
// subscription, then "backs off from SOAP and uses direct socket
// communication to send binary information" (paper §4.3). Channel is that
// socket abstraction: typed, framed binary messages over an in-process
// queue pair, a real TCP connection (tcp.hpp, reactor.hpp), or a
// bandwidth/latency simulated link (simlink.hpp) — all interchangeable.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/buffer.hpp"
#include "util/clock.hpp"
#include "util/result.hpp"

namespace rave::net {

struct Message {
  uint16_t type = 0;
  // The payload is `payload` followed by `tail`. Senders that hold an
  // already-encoded block (a serialized tile) put the small protocol
  // prefix in `payload` and the block in `tail`, so copying the Message —
  // which FanoutHub does once per subscriber — bumps a refcount instead
  // of duplicating the block, and the transports write both pieces with
  // one scatter-gather syscall. Receive paths always deliver messages
  // materialized (tail folded into `payload`), so downstream decoders see
  // one contiguous byte run exactly as before.
  std::vector<uint8_t> payload;
  Buffer tail;

  // Trace context riding with the message (obs tracing). Zero = untraced;
  // untraced messages are byte-identical on the wire to the pre-tracing
  // format. TCP flags traced frames with the high bit of the type field
  // and appends 16 header bytes; in-process channels pass these through.
  uint64_t trace_id = 0;
  uint64_t span_id = 0;

  // Hybrid-logical-clock stamp (obs::Hlc) for the cross-host timeline.
  // Zero = unstamped, byte-identical on the wire to the pre-HLC format;
  // stamped frames set the 0x4000 type bit and carry 12 extra header
  // bytes (wall micros u64 + logical u32, LE) after any trace context.
  uint64_t hlc_wall = 0;
  uint32_t hlc_logical = 0;

  Message() = default;
  Message(uint16_t t, std::vector<uint8_t> p) : type(t), payload(std::move(p)) {}
  Message(uint16_t t, std::vector<uint8_t> prefix, Buffer suffix)
      : type(t), payload(std::move(prefix)), tail(std::move(suffix)) {}

  [[nodiscard]] bool traced() const { return trace_id != 0; }
  [[nodiscard]] bool hlc_stamped() const { return hlc_wall != 0 || hlc_logical != 0; }

  [[nodiscard]] uint64_t payload_size() const { return payload.size() + tail.size(); }

  // Frame: 4-byte length + 2-byte type [+ 16-byte trace context]
  // [+ 12-byte HLC stamp] + payload.
  [[nodiscard]] uint64_t wire_size() const {
    return 6 + (traced() ? 16 : 0) + (hlc_stamped() ? 12 : 0) + payload_size();
  }

  // Fold the shared tail into the contiguous payload vector (a counted
  // copy). In-process transports call this at delivery so receivers can
  // keep reading `payload` directly; the socket transports never need it —
  // they writev() the two pieces in place.
  void materialize() {
    if (tail.empty()) return;
    payload.reserve(payload.size() + tail.size());
    tail.append_to(payload);
    tail = Buffer();
  }
};

struct ChannelStats {
  uint64_t messages_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t messages_received = 0;
  uint64_t bytes_received = 0;
  // Sends refused (or queued messages evicted) by a bounded write queue's
  // shed policy — backpressure made visible instead of a stalled sender.
  uint64_t messages_shed = 0;
  // Write-queue residency (reactor transport; zero elsewhere): the deepest
  // this channel's bounded queue ever got, and the cumulative time frames
  // waited for their socket (reactor.cpp defines it). The per-peer answer
  // to the process-wide rave_net_write_queue_* gauges — one stalled
  // subscriber shows up here, not smeared across the fleet.
  uint64_t queue_peak_depth = 0;
  double queue_wait_seconds = 0;
};

class Channel {
 public:
  virtual ~Channel() = default;

  // Status (and Result) are [[nodiscard]] at class scope: a dropped send
  // error is a silent message loss, the bug class the fault-tolerance
  // layer exists to surface. Use (void) to opt out deliberately.
  virtual util::Status send(Message message) = 0;

  // Send a copy of each of `messages`, in order, exactly as one send() each
  // would, and return each send's status. This default does just that; a
  // transport that can take a batch at once overrides it (the reactor
  // queues a subscriber's whole frame under one lock and gathers it into
  // as few sendmsg calls as the socket allows).
  virtual std::vector<util::Status> send_batch(std::span<const Message> messages);

  // The primary receive: blocks up to `timeout_seconds` (clock seconds)
  // and spells out the failure cause — "nothing arrived in time" versus
  // "the peer is gone" — which callers need to pick between retrying and
  // re-dispatching (paper §3.2.7 recovery). Implementations own this so
  // the distinction is made where it is actually known, at the transport.
  [[nodiscard]] virtual util::Result<Message> receive_result(double timeout_seconds) = 0;

  // Convenience wrappers over receive_result for callers that only care
  // whether a message arrived. Non-virtual by design: every transport
  // implements exactly one receive path.
  std::optional<Message> receive(double timeout_seconds) {
    auto result = receive_result(timeout_seconds);
    if (result.ok()) return std::move(result).take();
    return std::nullopt;
  }

  // Non-blocking receive.
  std::optional<Message> try_receive() { return receive(0.0); }

  virtual void close() = 0;
  [[nodiscard]] virtual bool is_open() const = 0;

  [[nodiscard]] virtual ChannelStats stats() const = 0;
};

using ChannelPtr = std::shared_ptr<Channel>;

// A connected pair of in-process endpoints: messages sent on one arrive at
// the other, instantly.
std::pair<ChannelPtr, ChannelPtr> make_channel_pair();

}  // namespace rave::net
