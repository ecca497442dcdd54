// Async reactor transport — the one TCP engine behind the fabric.
//
// A single epoll event-loop thread drives every non-blocking socket and
// listener: no thread per connection or per listener, so subscriber count
// is not capped by threads. Reads are parsed into per-channel receive
// queues, writes drain bounded per-channel write queues via scatter-gather
// sendmsg (header + payload prefix + shared tail in one syscall, zero
// payload copies). A stalled client's queue absorbs write_queue_limit
// frames; after that its shed policy decides. Under the default Block
// policy the sender then waits, so one stalled client *can* wedge a
// publisher mid-fanout; only the drop policies keep the sender moving.
//
// The synchronous Channel interface stays: a reactor channel's send()
// enqueues (and opportunistically flushes inline), receive_result() waits
// on the parsed-frame queue.
//
// Backpressure surfaces three ways: per-channel ChannelStats
// (messages_shed), process-wide metrics the SLO engine watches
// (rave_net_write_queue_depth / rave_net_sends_shed_total), and the send()
// error itself ("write queue full").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "net/channel.hpp"
#include "util/result.hpp"

namespace rave::net {

// What a bounded write queue does when a send arrives and the queue is at
// its limit. Block waits for room and never loses a frame, for request/reply
// channels; the drop policies guarantee the sending thread never stalls —
// a frame publisher sheds output to a slow subscriber (the subscriber
// recovers via the tile-miss fallback path, so correctness is unaffected).
enum class ShedPolicy : uint8_t { Block, DropNewest, DropOldest };

struct ReactorChannelOptions {
  size_t write_queue_limit = 1024;  // queued frames per channel; 0 = unbounded
  size_t recv_queue_limit = 4096;   // parsed frames buffered before reads pause
  ShedPolicy shed_policy = ShedPolicy::Block;
};

// Defaults, overridable by environment: RAVE_NET_QUEUE=<frames> and
// RAVE_NET_SHED=block|drop-newest|drop-oldest (see README). A value that
// does not parse keeps the default and logs one warning.
ReactorChannelOptions default_channel_options();

// "block"|"drop-newest"|"drop-oldest".
const char* shed_policy_name(ShedPolicy policy);
// Parse one of shed_policy_name's names (case-sensitive). False on unknown.
bool parse_shed_policy(const char* name, ShedPolicy& out);
// Parse a positive decimal frame count. False on anything else.
bool parse_queue_limit(const char* text, size_t& out);

struct ReactorImpl;
class ReactorListener;

class Reactor {
 public:
  // Called on the reactor thread for each accepted connection. Keep it
  // cheap (store the channel, wake a pump); heavy work belongs in pumps.
  using AcceptFn = std::function<void(ChannelPtr)>;

  Reactor();
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // The process-wide reactor most callers share (one event loop is plenty
  // for loopback/LAN fan-out; construct private Reactors for isolation).
  static Reactor& global();

  // Take ownership of a connected socket and drive it from the loop.
  ChannelPtr adopt(int fd, ReactorChannelOptions options = default_channel_options());

  // Bind 127.0.0.1:`port` (0 = ephemeral) and accept on the event loop —
  // no per-listener thread. Accepted connections use `options`.
  util::Result<std::unique_ptr<ReactorListener>> listen(
      uint16_t port, AcceptFn on_accept,
      ReactorChannelOptions options = default_channel_options());

  [[nodiscard]] size_t open_channels() const;

 private:
  std::shared_ptr<ReactorImpl> impl_;
};

class ReactorListener {
 public:
  ~ReactorListener();
  ReactorListener(const ReactorListener&) = delete;
  ReactorListener& operator=(const ReactorListener&) = delete;

  [[nodiscard]] uint16_t port() const { return port_; }
  void close();

 private:
  friend class Reactor;
  ReactorListener(std::shared_ptr<ReactorImpl> impl, uint64_t id, uint16_t port)
      : impl_(std::move(impl)), id_(id), port_(port) {}
  std::shared_ptr<ReactorImpl> impl_;
  uint64_t id_ = 0;
  uint16_t port_ = 0;
};

}  // namespace rave::net
