#include "net/channel.hpp"

#include <condition_variable>
#include <deque>
#include <mutex>

namespace rave::net {

std::vector<util::Status> Channel::send_batch(std::span<const Message> messages) {
  std::vector<util::Status> sent;
  sent.reserve(messages.size());
  for (const Message& message : messages) sent.push_back(send(message));
  return sent;
}

namespace {
// Shared state for one direction of an in-process pair.
struct Pipe {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Message> queue;
  bool closed = false;
};

class InProcChannel final : public Channel {
 public:
  InProcChannel(std::shared_ptr<Pipe> outgoing, std::shared_ptr<Pipe> incoming)
      : out_(std::move(outgoing)), in_(std::move(incoming)) {}

  ~InProcChannel() override { close(); }

  util::Status send(Message message) override {
    std::lock_guard lock(out_->mu);
    if (out_->closed) return util::make_error("channel closed");
    stats_.messages_sent++;
    stats_.bytes_sent += message.wire_size();
    out_->queue.push_back(std::move(message));
    out_->cv.notify_all();
    return {};
  }

  util::Result<Message> receive_result(double timeout_seconds) override {
    std::unique_lock lock(in_->mu);
    const auto ready = [&] { return !in_->queue.empty() || in_->closed; };
    if (!in_->cv.wait_for(lock, std::chrono::duration<double>(timeout_seconds), ready))
      return util::make_error("channel: receive timed out after " +
                              std::to_string(timeout_seconds) + "s");
    if (in_->queue.empty())  // closed and drained
      return util::make_error("channel: closed by peer");
    Message msg = std::move(in_->queue.front());
    in_->queue.pop_front();
    stats_.messages_received++;
    stats_.bytes_received += msg.wire_size();
    msg.materialize();
    return msg;
  }

  void close() override {
    {
      std::lock_guard lock(out_->mu);
      out_->closed = true;
      out_->cv.notify_all();
    }
    {
      std::lock_guard lock(in_->mu);
      in_->closed = true;
      in_->cv.notify_all();
    }
  }

  [[nodiscard]] bool is_open() const override {
    std::lock_guard lock(in_->mu);
    return !in_->closed || !in_->queue.empty();
  }

  [[nodiscard]] ChannelStats stats() const override { return stats_; }

 private:
  std::shared_ptr<Pipe> out_;
  mutable std::shared_ptr<Pipe> in_;
  ChannelStats stats_;
};
}  // namespace

std::pair<ChannelPtr, ChannelPtr> make_channel_pair() {
  auto a_to_b = std::make_shared<Pipe>();
  auto b_to_a = std::make_shared<Pipe>();
  return {std::make_shared<InProcChannel>(a_to_b, b_to_a),
          std::make_shared<InProcChannel>(b_to_a, a_to_b)};
}

}  // namespace rave::net
