// Fan-out distribution tier. The data service "informs the render service
// of any changes, using network bandwidth-saving techniques such as
// multicasting" (paper §3.1.2). FanoutHub models that multicast: one
// logical send reaches every subscriber, with the payload counted once in
// the hub's multicast accounting (vs. once per subscriber for unicast).
//
// FanoutRelay grows the hub into a relay node (the WAN network-data-cache
// topology of arXiv:1801.09504): it subscribes to an upstream publisher
// through an ordinary channel and re-publishes into its own hub, so a
// publisher feeds O(log n) relays instead of O(n) subscribers. Relays
// also carry the reverse path — subscriber requests (tile cache misses)
// flow upward, optionally intercepted by a pluggable handler so a relay
// can serve them from its own cache instead of bothering the source.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/channel.hpp"

namespace rave::net {

class FanoutHub {
 public:
  using SubscriberId = uint64_t;

  SubscriberId subscribe(ChannelPtr channel);
  void unsubscribe(SubscriberId id);

  // Send `messages` to all subscribers, each as one Channel::send_batch.
  // Returns the number of deliveries (messages times subscribers that took
  // them). The subscriber list is snapshotted once under the lock and
  // delivery runs outside it, so one slow or reentrant send cannot
  // serialize the hub (or deadlock a channel that unsubscribes from inside
  // its send).
  size_t publish(std::span<const Message> messages);
  size_t publish(const Message& message) { return publish(std::span(&message, 1)); }

  // Send to one subscriber (reverse-path replies). Fails when the id is
  // gone.
  util::Status send_to(SubscriberId id, Message message);

  // Drain subscriber→hub traffic: try_receive() every subscriber channel
  // and hand each message to `handler` with the subscriber it came from.
  // Returns the number of messages drained.
  size_t drain_incoming(const std::function<void(SubscriberId, const Message&)>& handler);

  // Drop subscribers whose channel has closed; returns how many.
  size_t prune_closed();

  [[nodiscard]] size_t subscriber_count() const;

  // Bytes the payload would cost multicast (counted once per published
  // message that reached anyone) vs unicast (counted per actual delivery —
  // failed sends don't count) — the bandwidth saving the paper cites.
  [[nodiscard]] uint64_t multicast_bytes() const {
    return multicast_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t unicast_bytes() const {
    return unicast_bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct Subscriber {
    SubscriberId id;
    ChannelPtr channel;
  };

  mutable std::mutex mu_;
  std::vector<Subscriber> subscribers_;
  SubscriberId next_id_ = 1;
  std::atomic<uint64_t> multicast_bytes_{0};
  std::atomic<uint64_t> unicast_bytes_{0};
};

// A relay node: one upstream channel in, one hub of downstream
// subscribers out. pump() moves upstream messages down (one receive, N
// deliveries) and downstream requests up. Protocol-agnostic: the
// downstream tap and request handler are how a caller (the frame cache
// tier in rave::core) teaches a relay to serve cache misses locally.
class FanoutRelay {
 public:
  // Inspect an upstream-bound request; return a reply to serve it locally
  // (sent only to the requester), or nullopt to forward it upstream.
  using RequestHandler = std::function<std::optional<Message>(const Message&)>;
  // Observe every message forwarded downstream (cache population).
  using DownstreamTap = std::function<void(const Message&)>;

  struct Stats {
    uint64_t forwarded_down = 0;  // upstream messages re-published
    uint64_t forwarded_down_bytes = 0;
    uint64_t requests_served = 0;     // answered from the handler
    uint64_t requests_forwarded = 0;  // passed to the upstream publisher
    // Forwards the upstream channel refused (closed, shed, dead link).
    // A rising count means requesters upstream of this relay are waiting
    // on replies that will never come — it feeds the relay status report
    // and the rave_relay_upstream_errors_total counter.
    uint64_t upstream_errors = 0;
  };

  explicit FanoutRelay(ChannelPtr upstream) : upstream_(std::move(upstream)) {}

  [[nodiscard]] FanoutHub& hub() { return hub_; }
  [[nodiscard]] const FanoutHub& hub() const { return hub_; }

  // Host label for the relay's hop spans ("relay" by default): a traced
  // frame crossing two relays shows relay@edge-1 and relay@edge-2 as
  // separate hops in critical_path().
  void set_host(std::string host) { host_ = std::move(host); }
  [[nodiscard]] const std::string& host() const { return host_; }

  void set_request_handler(RequestHandler handler) { handler_ = std::move(handler); }
  void set_downstream_tap(DownstreamTap tap) { tap_ = std::move(tap); }

  // Forward pending traffic both ways; returns messages moved. What the
  // upstream holds goes down as one batch.
  size_t pump();

  [[nodiscard]] bool upstream_open() const { return upstream_ && upstream_->is_open(); }
  void close() {
    if (upstream_) upstream_->close();
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  void note_upstream_error(const std::string& error);

  ChannelPtr upstream_;
  FanoutHub hub_;
  RequestHandler handler_;
  DownstreamTap tap_;
  Stats stats_;
  std::string host_ = "relay";
};

}  // namespace rave::net
