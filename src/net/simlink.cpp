#include "net/simlink.hpp"

#include <algorithm>
#include <deque>
#include <mutex>

namespace rave::net {

LinkProfile wireless_11mbit() {
  return {.name = "wireless-11mbit",
          .bandwidth_bps = 11e6,
          .latency_s = 0.003,
          .efficiency = 0.42,  // 802.11b MAC overhead + shared medium
          .per_message_overhead_bytes = 60};
}

LinkProfile ethernet_100mbit() {
  return {.name = "ethernet-100mbit",
          .bandwidth_bps = 100e6,
          .latency_s = 0.0003,
          .efficiency = 0.9,
          .per_message_overhead_bytes = 60};
}

namespace {
struct TimedMessage {
  double arrival = 0.0;
  Message message;
};

// One direction of a simulated link.
struct SimPipe {
  std::mutex mu;
  std::deque<TimedMessage> queue;  // FIFO: arrivals are monotonic
  double busy_until = 0.0;         // serialization: one message at a time
  bool closed = false;
};

constexpr double kPollQuantum = 0.0005;

class SimChannel final : public Channel {
 public:
  SimChannel(std::shared_ptr<SimPipe> outgoing, std::shared_ptr<SimPipe> incoming,
             util::Clock& clock, LinkProfile profile)
      : out_(std::move(outgoing)),
        in_(std::move(incoming)),
        clock_(&clock),
        profile_(std::move(profile)) {}

  ~SimChannel() override { close(); }

  util::Status send(Message message) override {
    std::lock_guard lock(out_->mu);
    if (out_->closed) return util::make_error("simlink: channel closed");
    const double now = clock_->now();
    const double start = std::max(now, out_->busy_until);
    const double arrival =
        start + profile_.transmit_seconds(message.wire_size()) + profile_.latency_s;
    out_->busy_until = start + profile_.transmit_seconds(message.wire_size());
    stats_.messages_sent++;
    stats_.bytes_sent += message.wire_size();
    out_->queue.push_back({arrival, std::move(message)});
    return {};
  }

  util::Result<Message> receive_result(double timeout_seconds) override {
    const double deadline = clock_->now() + timeout_seconds;
    const auto timeout_error = [&] {
      return util::make_error("simlink: receive timed out after " +
                              std::to_string(timeout_seconds) + "s");
    };
    for (;;) {
      {
        std::lock_guard lock(in_->mu);
        if (!in_->queue.empty()) {
          const double arrival = in_->queue.front().arrival;
          if (arrival <= clock_->now()) return pop_locked();
          if (arrival <= deadline) {
            // Wait (or advance virtual time) until the head arrives.
            const double target = arrival;
            in_->mu.unlock();
            clock_->wait_until(target);
            in_->mu.lock();
            if (!in_->queue.empty() && in_->queue.front().arrival <= clock_->now())
              return pop_locked();
            continue;
          }
          // Head arrives after the deadline: a blocking receive consumes
          // its whole timeout (otherwise virtual-time pollers would spin
          // without ever advancing the clock).
          in_->mu.unlock();
          clock_->wait_until(deadline);
          in_->mu.lock();
          return timeout_error();
        }
        if (in_->closed) return util::make_error("simlink: closed by peer");
      }
      if (clock_->now() >= deadline) return timeout_error();
      clock_->sleep_for(std::min(kPollQuantum, deadline - clock_->now()));
    }
  }

  void close() override {
    {
      std::lock_guard lock(out_->mu);
      out_->closed = true;
    }
    {
      std::lock_guard lock(in_->mu);
      in_->closed = true;
    }
  }

  [[nodiscard]] bool is_open() const override {
    std::lock_guard lock(in_->mu);
    return !in_->closed || !in_->queue.empty();
  }

  [[nodiscard]] ChannelStats stats() const override { return stats_; }

 private:
  // in_->mu must be held.
  util::Result<Message> pop_locked() {
    Message msg = std::move(in_->queue.front().message);
    in_->queue.pop_front();
    stats_.messages_received++;
    stats_.bytes_received += msg.wire_size();
    msg.materialize();
    return msg;
  }

  std::shared_ptr<SimPipe> out_;
  mutable std::shared_ptr<SimPipe> in_;
  util::Clock* clock_;
  LinkProfile profile_;
  ChannelStats stats_;
};
}  // namespace

std::pair<ChannelPtr, ChannelPtr> make_simulated_pair(util::Clock& clock,
                                                      const LinkProfile& profile) {
  auto a_to_b = std::make_shared<SimPipe>();
  auto b_to_a = std::make_shared<SimPipe>();
  return {std::make_shared<SimChannel>(a_to_b, b_to_a, clock, profile),
          std::make_shared<SimChannel>(b_to_a, a_to_b, clock, profile)};
}

}  // namespace rave::net
