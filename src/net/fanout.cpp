#include "net/fanout.hpp"

#include <algorithm>

#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rave::net {

FanoutHub::SubscriberId FanoutHub::subscribe(ChannelPtr channel) {
  std::lock_guard lock(mu_);
  const SubscriberId id = next_id_++;
  subscribers_.push_back({id, std::move(channel)});
  return id;
}

void FanoutHub::unsubscribe(SubscriberId id) {
  std::lock_guard lock(mu_);
  subscribers_.erase(std::remove_if(subscribers_.begin(), subscribers_.end(),
                                    [&](const Subscriber& s) { return s.id == id; }),
                     subscribers_.end());
}

size_t FanoutHub::publish(std::span<const Message> messages) {
  // Snapshot under the lock, deliver outside it: channel sends may block
  // (simulated links, TCP backpressure) and must not serialize against
  // subscribe/unsubscribe or each other's bookkeeping.
  std::vector<Subscriber> snapshot;
  {
    std::lock_guard lock(mu_);
    snapshot = subscribers_;
  }
  std::vector<bool> reached(messages.size(), false);
  size_t delivered = 0;
  uint64_t unicast = 0;
  for (auto& sub : snapshot) {
    const std::vector<util::Status> sent = sub.channel->send_batch(messages);
    for (size_t i = 0; i < sent.size(); ++i) {
      if (!sent[i].ok()) continue;
      ++delivered;
      unicast += messages[i].wire_size();
      reached[i] = true;
    }
  }
  uint64_t multicast = 0;
  for (size_t i = 0; i < messages.size(); ++i)
    if (reached[i]) multicast += messages[i].wire_size();
  unicast_bytes_.fetch_add(unicast, std::memory_order_relaxed);
  multicast_bytes_.fetch_add(multicast, std::memory_order_relaxed);
  return delivered;
}

util::Status FanoutHub::send_to(SubscriberId id, Message message) {
  ChannelPtr channel;
  {
    std::lock_guard lock(mu_);
    for (const Subscriber& sub : subscribers_)
      if (sub.id == id) {
        channel = sub.channel;
        break;
      }
  }
  if (!channel) return util::make_error("fanout: unknown subscriber");
  return channel->send(std::move(message));
}

size_t FanoutHub::drain_incoming(
    const std::function<void(SubscriberId, const Message&)>& handler) {
  std::vector<std::pair<SubscriberId, ChannelPtr>> snapshot;
  {
    std::lock_guard lock(mu_);
    snapshot.reserve(subscribers_.size());
    for (const Subscriber& sub : subscribers_) snapshot.emplace_back(sub.id, sub.channel);
  }
  size_t drained = 0;
  for (auto& [id, channel] : snapshot) {
    for (;;) {
      auto msg = channel->try_receive();
      if (!msg.has_value()) break;
      ++drained;
      if (handler) handler(id, *msg);
    }
  }
  return drained;
}

size_t FanoutHub::prune_closed() {
  std::lock_guard lock(mu_);
  const size_t before = subscribers_.size();
  subscribers_.erase(std::remove_if(subscribers_.begin(), subscribers_.end(),
                                    [](const Subscriber& s) { return !s.channel->is_open(); }),
                     subscribers_.end());
  return before - subscribers_.size();
}

size_t FanoutHub::subscriber_count() const {
  std::lock_guard lock(mu_);
  return subscribers_.size();
}

size_t FanoutRelay::pump() {
  size_t moved = 0;
  // Downward: everything the upstream published since the last pump, as
  // one batch.
  if (upstream_) {
    std::vector<Message> batch;
    // Each traced message gets a relay hop span, so a relayed frame's
    // timeline records this hop and downstream spans (the next relay,
    // subscriber queue-wait/decode) nest beneath it. A hop ends when its
    // batch has been handed to every subscriber.
    std::vector<obs::SpanRecord> hops;
    obs::Tracer& tracer = obs::Tracer::global();
    while (auto msg = upstream_->try_receive()) {
      if (tap_) tap_(*msg);
      ++stats_.forwarded_down;
      stats_.forwarded_down_bytes += msg->wire_size();
      if (msg->traced() && tracer.enabled()) {
        obs::SpanRecord hop;
        hop.trace_id = msg->trace_id;
        hop.parent_span_id = msg->span_id;
        hop.span_id = tracer.next_span_id();
        hop.name = "relay";
        hop.host = host_;
        hop.start = tracer.now();
        msg->span_id = hop.span_id;
        hops.push_back(std::move(hop));
      }
      batch.push_back(*std::move(msg));
    }
    moved += batch.size();
    if (!batch.empty()) hub_.publish(batch);
    if (!hops.empty()) {
      const double end = tracer.now();
      for (obs::SpanRecord& hop : hops) {
        hop.end = end;
        tracer.record(std::move(hop));
      }
    }
  }
  // Upward: subscriber requests, served locally when the handler can.
  moved += hub_.drain_incoming([this](FanoutHub::SubscriberId id, const Message& msg) {
    if (handler_) {
      if (std::optional<Message> reply = handler_(msg)) {
        ++stats_.requests_served;
        // A cached reply replays a message remembered from an earlier
        // frame — it must join the *requester's* trace, not the one that
        // populated the cache (and stay untraced for untraced requests).
        reply->trace_id = msg.trace_id;
        reply->span_id = msg.span_id;
        (void)hub_.send_to(id, *std::move(reply));
        return;
      }
    }
    ++stats_.requests_forwarded;
    if (upstream_) {
      util::Status sent = upstream_->send(msg);
      if (!sent.ok()) note_upstream_error(sent.error());
    }
  });
  return moved;
}

void FanoutRelay::note_upstream_error(const std::string& error) {
  ++stats_.upstream_errors;
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("rave_relay_upstream_errors_total");
  counter.inc();
  // Log the first few at Warn, then sample: a dead upstream would
  // otherwise flood the event log at pump frequency.
  if (stats_.upstream_errors <= 3 || stats_.upstream_errors % 100 == 0)
    obs::log_event(util::LogLevel::Warn, "fanout", "relay_upstream_error",
                   "forward to upstream failed (" + std::to_string(stats_.upstream_errors) +
                       " total): " + error);
}

}  // namespace rave::net
