// Network substrate tests: in-process channels, TCP, simulated links,
// fan-out distribution.
#include <gtest/gtest.h>

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>

#include "net/channel.hpp"
#include "net/fanout.hpp"
#include "net/reactor.hpp"
#include "net/simlink.hpp"
#include "net/tcp.hpp"
#include "util/clock.hpp"

namespace rave::net {
namespace {

TEST(InProcChannel, SendReceive) {
  auto [a, b] = make_channel_pair();
  ASSERT_TRUE(a->send({7, {1, 2, 3}}).ok());
  auto msg = b->try_receive();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, 7);
  EXPECT_EQ(msg->payload, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_FALSE(b->try_receive().has_value());
}

TEST(InProcChannel, Bidirectional) {
  auto [a, b] = make_channel_pair();
  ASSERT_TRUE(a->send({1, {}}).ok());
  ASSERT_TRUE(b->send({2, {}}).ok());
  EXPECT_EQ(a->try_receive()->type, 2);
  EXPECT_EQ(b->try_receive()->type, 1);
}

TEST(InProcChannel, CloseUnblocksAndRefusesSend) {
  auto [a, b] = make_channel_pair();
  a->close();
  EXPECT_FALSE(a->send({1, {}}).ok());
  EXPECT_FALSE(b->receive(0.05).has_value());
}

TEST(InProcChannel, BlockingReceiveWaitsForSender) {
  auto [a, b] = make_channel_pair();
  std::thread sender([&a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    (void)a->send({42, {}});
  });
  auto msg = b->receive(1.0);
  sender.join();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, 42);
}

TEST(InProcChannel, StatsCountTraffic) {
  auto [a, b] = make_channel_pair();
  (void)a->send({1, std::vector<uint8_t>(10)});
  (void)b->try_receive();
  EXPECT_EQ(a->stats().messages_sent, 1u);
  EXPECT_EQ(a->stats().bytes_sent, 16u);  // 6-byte frame + payload
  EXPECT_EQ(b->stats().messages_received, 1u);
}

// Channels a reactor listener accepted, handed from the event loop to the
// test thread. Declare it before the listener so it outlives every accept.
struct AcceptQueue {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<ChannelPtr> channels;

  Reactor::AcceptFn on_accept() {
    return [this](ChannelPtr channel) {
      std::lock_guard lock(mu);
      channels.push_back(std::move(channel));
      cv.notify_all();
    };
  }

  // The next accepted channel; nullopt on timeout.
  std::optional<ChannelPtr> accept(double timeout_seconds) {
    std::unique_lock lock(mu);
    if (!cv.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                     [&] { return !channels.empty(); }))
      return std::nullopt;
    ChannelPtr channel = std::move(channels.front());
    channels.pop_front();
    return channel;
  }
};

TEST(Tcp, ConnectSendReceive) {
  AcceptQueue accepted;
  auto listener = Reactor::global().listen(0, accepted.on_accept());
  ASSERT_TRUE(listener.ok()) << listener.error();
  auto client = tcp_connect("127.0.0.1", listener.value()->port());
  ASSERT_TRUE(client.ok()) << client.error();
  auto server = accepted.accept(1.0);
  ASSERT_TRUE(server.has_value());

  std::vector<uint8_t> payload(1000);
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<uint8_t>(i * 7);
  ASSERT_TRUE(client.value()->send({0x0111, payload}).ok());
  auto msg = (*server)->receive(1.0);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, 0x0111);
  EXPECT_EQ(msg->payload, payload);

  // And back.
  ASSERT_TRUE((*server)->send({0x0112, {9}}).ok());
  auto reply = client.value()->receive(1.0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->payload[0], 9);
}

TEST(Message, WireSizeAccountsForOptionalHeaders) {
  Message plain(0x42, {1, 2, 3});
  EXPECT_EQ(plain.wire_size(), 6u + 3u);  // length + type + payload

  Message traced = plain;
  traced.trace_id = 7;
  traced.span_id = 9;
  EXPECT_EQ(traced.wire_size(), 6u + 16u + 3u);  // + trace context

  Message stamped = plain;
  stamped.hlc_wall = 1'000'000;
  stamped.hlc_logical = 2;
  EXPECT_EQ(stamped.wire_size(), 6u + 12u + 3u);  // + HLC stamp

  Message both = traced;
  both.hlc_wall = 1'000'000;
  both.hlc_logical = 2;
  EXPECT_EQ(both.wire_size(), 6u + 16u + 12u + 3u);
}

TEST(Tcp, HlcStampRoundTripsAndUnstampedStaysClean) {
  AcceptQueue accepted;
  auto listener = Reactor::global().listen(0, accepted.on_accept());
  ASSERT_TRUE(listener.ok()) << listener.error();
  auto client = tcp_connect("127.0.0.1", listener.value()->port());
  ASSERT_TRUE(client.ok()) << client.error();
  auto server = accepted.accept(1.0);
  ASSERT_TRUE(server.has_value());

  Message stamped(0x0123, {5, 6, 7});
  stamped.hlc_wall = 0x0102030405060708ull;
  stamped.hlc_logical = 42;
  ASSERT_TRUE(client.value()->send(stamped).ok());
  auto msg = (*server)->receive(1.0);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, 0x0123);  // the 0x4000 flag bit never leaks upward
  EXPECT_EQ(msg->hlc_wall, 0x0102030405060708ull);
  EXPECT_EQ(msg->hlc_logical, 42u);
  EXPECT_EQ(msg->payload, (std::vector<uint8_t>{5, 6, 7}));

  // Unstamped traffic arrives with a zero stamp (pre-HLC wire format).
  ASSERT_TRUE((*server)->send({0x0124, {9}}).ok());
  auto reply = client.value()->receive(1.0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->hlc_wall, 0u);
  EXPECT_EQ(reply->hlc_logical, 0u);
  EXPECT_FALSE(reply->hlc_stamped());
}

TEST(Tcp, ReceiveTimesOutWithoutData) {
  AcceptQueue accepted;
  auto listener = Reactor::global().listen(0, accepted.on_accept());
  ASSERT_TRUE(listener.ok());
  auto client = tcp_connect("127.0.0.1", listener.value()->port());
  ASSERT_TRUE(client.ok());
  auto server = accepted.accept(1.0);
  ASSERT_TRUE(server.has_value());
  EXPECT_FALSE(client.value()->receive(0.05).has_value());
}

TEST(Tcp, ConnectToClosedPortFails) {
  AcceptQueue accepted;
  auto listener = Reactor::global().listen(0, accepted.on_accept());
  ASSERT_TRUE(listener.ok());
  const uint16_t port = listener.value()->port();
  listener.value()->close();
  EXPECT_FALSE(tcp_connect("127.0.0.1", port).ok());
}

TEST(LinkProfile, TransmitArithmetic) {
  LinkProfile link;
  link.bandwidth_bps = 8e6;  // 1 MB/s
  link.efficiency = 1.0;
  link.latency_s = 0.01;
  EXPECT_NEAR(link.transmit_seconds(1'000'000), 1.0, 1e-9);
  EXPECT_NEAR(link.delivery_seconds(500'000), 0.51, 1e-9);
  LinkProfile infinite;
  EXPECT_DOUBLE_EQ(infinite.delivery_seconds(1'000'000), 0.0);
}

TEST(LinkProfile, PaperWirelessMatchesMeasuredReceipt) {
  // Paper §5.1: 200x200x24bpp (120 KB) over 11 Mbit/s wireless took
  // ~0.2 s — "a bandwidth of around 580Kb/sec".
  const LinkProfile link = wireless_11mbit();
  const double t = link.delivery_seconds(200 * 200 * 3);
  EXPECT_GT(t, 0.15);
  EXPECT_LT(t, 0.28);
}

TEST(SimulatedLink, DelaysDeliveryOnVirtualClock) {
  util::SimClock clock;
  LinkProfile link;
  link.bandwidth_bps = 8e6;
  link.latency_s = 0.5;
  auto [a, b] = make_simulated_pair(clock, link);
  ASSERT_TRUE(a->send({1, std::vector<uint8_t>(100'000)}).ok());
  EXPECT_FALSE(b->try_receive().has_value());  // not yet arrived
  auto msg = b->receive(2.0);                  // auto-advances virtual time
  ASSERT_TRUE(msg.has_value());
  // ~0.1 s serialization + 0.5 s latency.
  EXPECT_NEAR(clock.now(), 0.6, 0.05);
}

TEST(SimulatedLink, SerializesBackToBackMessages) {
  util::SimClock clock;
  LinkProfile link;
  link.bandwidth_bps = 8e6;
  auto [a, b] = make_simulated_pair(clock, link);
  ASSERT_TRUE(a->send({1, std::vector<uint8_t>(1'000'000)}).ok());
  ASSERT_TRUE(a->send({2, std::vector<uint8_t>(1'000'000)}).ok());
  ASSERT_TRUE(b->receive(10.0).has_value());
  ASSERT_TRUE(b->receive(10.0).has_value());
  // Two 1 MB messages over 1 MB/s share the pipe: ~2 s total.
  EXPECT_NEAR(clock.now(), 2.0, 0.1);
}

TEST(SimulatedLink, TimeoutRespected) {
  util::SimClock clock;
  LinkProfile link;
  link.bandwidth_bps = 1e3;  // very slow
  auto [a, b] = make_simulated_pair(clock, link);
  ASSERT_TRUE(a->send({1, std::vector<uint8_t>(100'000)}).ok());
  EXPECT_FALSE(b->receive(0.5).has_value());  // arrival far beyond timeout
  EXPECT_LE(clock.now(), 0.6);
}

TEST(Fanout, PublishReachesAllSubscribers) {
  FanoutHub hub;
  auto [a1, a2] = make_channel_pair();
  auto [b1, b2] = make_channel_pair();
  hub.subscribe(a1);
  hub.subscribe(b1);
  EXPECT_EQ(hub.publish({5, {1}}), 2u);
  EXPECT_TRUE(a2->try_receive().has_value());
  EXPECT_TRUE(b2->try_receive().has_value());
}

TEST(Fanout, MulticastAccountingCountsPayloadOnce) {
  FanoutHub hub;
  auto [a1, a2] = make_channel_pair();
  auto [b1, b2] = make_channel_pair();
  auto [c1, c2] = make_channel_pair();
  hub.subscribe(a1);
  hub.subscribe(b1);
  hub.subscribe(c1);
  const Message msg{1, std::vector<uint8_t>(100)};
  hub.publish(msg);
  EXPECT_EQ(hub.multicast_bytes(), msg.wire_size());
  EXPECT_EQ(hub.unicast_bytes(), 3 * msg.wire_size());
}

TEST(Fanout, UnsubscribeStopsDelivery) {
  FanoutHub hub;
  auto [a1, a2] = make_channel_pair();
  const auto id = hub.subscribe(a1);
  hub.unsubscribe(id);
  EXPECT_EQ(hub.publish({1, {}}), 0u);
  EXPECT_EQ(hub.subscriber_count(), 0u);
}

}  // namespace
}  // namespace rave::net
