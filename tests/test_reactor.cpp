// Reactor transport tests: endpoint parsing, zero-copy buffers, the epoll
// engine's rich receive errors, and — the point of the bounded write
// queues — a slow or never-reading peer shedding per policy instead of
// stalling the publisher thread.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <numeric>
#include <thread>

#include "net/buffer.hpp"
#include "net/channel.hpp"
#include "net/endpoint.hpp"
#include "net/fanout.hpp"
#include "net/reactor.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"

namespace rave::net {
namespace {

// ---------------------------------------------------------------- endpoint --

TEST(Endpoint, ParsesTcpAndRoundTrips) {
  auto ep = Endpoint::parse("tcp:127.0.0.1:9000");
  ASSERT_TRUE(ep.ok()) << ep.error();
  EXPECT_EQ(ep.value().scheme, Endpoint::Scheme::Tcp);
  EXPECT_EQ(ep.value().host, "127.0.0.1");
  EXPECT_EQ(ep.value().port, 9000);
  EXPECT_EQ(ep.value().to_string(), "tcp:127.0.0.1:9000");
  EXPECT_EQ(ep.value(), Endpoint::tcp("127.0.0.1", 9000));
}

TEST(Endpoint, ParsesInProcAndRoundTrips) {
  auto ep = Endpoint::parse("inproc:tower/render0");
  ASSERT_TRUE(ep.ok()) << ep.error();
  EXPECT_EQ(ep.value().scheme, Endpoint::Scheme::InProc);
  EXPECT_EQ(ep.value().name, "tower/render0");
  EXPECT_EQ(ep.value().to_string(), "inproc:tower/render0");
}

TEST(Endpoint, ErrorsCarryTheOffendingString) {
  for (const char* bad : {"", "tcp:", "tcp:127.0.0.1", "tcp:host:notaport", "tcp:host:0",
                          "tcp:host:70000", "http://x", "inproc:"}) {
    auto ep = Endpoint::parse(bad);
    EXPECT_FALSE(ep.ok()) << "accepted: " << bad;
  }
  auto ep = Endpoint::parse("tcp:10.0.0.1:nope");
  ASSERT_FALSE(ep.ok());
  EXPECT_NE(ep.error().find("tcp:10.0.0.1:nope"), std::string::npos) << ep.error();
}

// ------------------------------------------------------------------ buffer --

TEST(Buffer, TakeAdoptsWithoutCopying) {
  const uint64_t before = Buffer::copy_count();
  std::vector<uint8_t> bytes(1024, 0xAB);
  const uint8_t* raw = bytes.data();
  Buffer buffer = Buffer::take(std::move(bytes));
  Buffer alias = buffer;  // refcount bump, not a copy
  EXPECT_EQ(buffer.data(), raw);
  EXPECT_EQ(alias.data(), raw);
  EXPECT_EQ(alias.size(), 1024u);
  EXPECT_EQ(Buffer::copy_count(), before);
}

TEST(Buffer, MaterializeIsACountedCopy) {
  Message msg(7, {1, 2, 3}, Buffer::take({4, 5, 6, 7}));
  EXPECT_EQ(msg.payload_size(), 7u);
  EXPECT_EQ(msg.wire_size(), 13u);  // 6-byte frame header + 7 payload bytes
  const uint64_t copies = Buffer::copy_count();
  const uint64_t bytes = Buffer::copied_bytes();
  msg.materialize();
  EXPECT_EQ(msg.payload, (std::vector<uint8_t>{1, 2, 3, 4, 5, 6, 7}));
  EXPECT_TRUE(msg.tail.empty());
  EXPECT_EQ(Buffer::copy_count(), copies + 1);
  EXPECT_EQ(Buffer::copied_bytes(), bytes + 4);
}

TEST(Buffer, InProcDeliveryMaterializesTheTail) {
  auto [a, b] = make_channel_pair();
  ASSERT_TRUE(a->send(Message(9, {1, 2}, Buffer::take({3, 4, 5}))).ok());
  auto msg = b->try_receive();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, (std::vector<uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(msg->tail.empty());
}

// ------------------------------------------------------------- raw harness --

// A plain kernel socket peer the reactor talks to: accepts one connection
// and then reads only when the test says so. Small buffers make kernel
// backpressure reachable with modest payloads.
struct RawPeer {
  int listen_fd = -1;
  int conn_fd = -1;
  uint16_t port = 0;

  void start() {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listen_fd, 0);
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    ASSERT_EQ(::listen(listen_fd, 4), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
    port = ntohs(addr.sin_port);
  }

  void accept_one() {
    conn_fd = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(conn_fd, 0);
  }

  std::vector<uint8_t> read_exactly(size_t n) {
    std::vector<uint8_t> out(n);
    size_t off = 0;
    while (off < n) {
      const ssize_t r = ::recv(conn_fd, out.data() + off, n - off, 0);
      if (r <= 0) break;
      off += static_cast<size_t>(r);
    }
    out.resize(off);
    return out;
  }

  // Drain and discard until EOF (frees a wedged sender).
  void drain_all() {
    uint8_t sink[65536];
    while (::recv(conn_fd, sink, sizeof(sink), 0) > 0) {
    }
  }

  ~RawPeer() {
    if (conn_fd >= 0) ::close(conn_fd);
    if (listen_fd >= 0) ::close(listen_fd);
  }
};

// Connect a reactor channel to `port` with a deliberately small kernel
// send buffer, so write-queue backpressure engages within a few hundred
// kilobytes instead of megabytes.
ChannelPtr reactor_connect(uint16_t port, const ReactorChannelOptions& opts) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const int small = 32 * 1024;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return Reactor::global().adopt(fd, opts);
}

// --------------------------------------------------------------- reactor ----

TEST(Reactor, EchoAndTraceRoundTripOverEventLoop) {
  std::mutex mu;
  std::condition_variable cv;
  ChannelPtr server;
  auto listener = Reactor::global().listen(0, [&](ChannelPtr accepted) {
    std::lock_guard lock(mu);
    server = std::move(accepted);
    cv.notify_all();
  });
  ASSERT_TRUE(listener.ok()) << listener.error();

  auto dialed = tcp_connect("127.0.0.1", listener.value()->port());
  ChannelPtr client = dialed.ok() ? std::move(dialed).take() : nullptr;
  ASSERT_NE(client, nullptr);
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return server != nullptr; }));
  }

  Message out(0x0133, {1, 2, 3}, Buffer::take({4, 5}));
  out.trace_id = 0xDEADBEEF;
  out.span_id = 77;
  ASSERT_TRUE(client->send(std::move(out)).ok());

  auto got = server->receive_result(5.0);
  ASSERT_TRUE(got.ok()) << got.error();
  EXPECT_EQ(got.value().type, 0x0133);
  EXPECT_EQ(got.value().payload, (std::vector<uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(got.value().trace_id, 0xDEADBEEFu);
  EXPECT_EQ(got.value().span_id, 77u);

  ASSERT_TRUE(server->send(Message(0x0101, {9})).ok());
  auto reply = client->receive_result(5.0);
  ASSERT_TRUE(reply.ok()) << reply.error();
  EXPECT_EQ(reply.value().type, 0x0101);

  client->close();
  server->close();
}

TEST(Reactor, ReceiveErrorsDistinguishTimeoutFromPeerClose) {
  std::mutex mu;
  std::condition_variable cv;
  ChannelPtr server;
  auto listener = Reactor::global().listen(0, [&](ChannelPtr accepted) {
    std::lock_guard lock(mu);
    server = std::move(accepted);
    cv.notify_all();
  });
  ASSERT_TRUE(listener.ok()) << listener.error();
  ChannelPtr client = reactor_connect(listener.value()->port(), {});
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return server != nullptr; }));
  }

  auto nothing = client->receive_result(0.02);
  ASSERT_FALSE(nothing.ok());
  EXPECT_NE(nothing.error().find("timed out"), std::string::npos) << nothing.error();

  server->close();
  auto closed = client->receive_result(5.0);
  ASSERT_FALSE(closed.ok());
  EXPECT_NE(closed.error().find("closed by peer"), std::string::npos) << closed.error();
  EXPECT_FALSE(client->send(Message(1, {1})).ok());
  client->close();
}

// The one bound on untrusted wire input: a frame length beyond 1 GiB is
// corruption, so the reactor drops the connection instead of allocating.
TEST(Reactor, OversizedFrameLengthFailsTheChannel) {
  std::mutex mu;
  std::condition_variable cv;
  ChannelPtr server;
  auto listener = Reactor::global().listen(0, [&](ChannelPtr accepted) {
    std::lock_guard lock(mu);
    server = std::move(accepted);
    cv.notify_all();
  });
  ASSERT_TRUE(listener.ok()) << listener.error();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const timeval five_seconds{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &five_seconds, sizeof(five_seconds));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener.value()->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return server != nullptr; }));
  }

  // A bare 6-byte header declaring one byte more than the 1 GiB limit.
  const uint32_t len = (1u << 30) + 1;
  const uint8_t header[6] = {static_cast<uint8_t>(len),       static_cast<uint8_t>(len >> 8),
                             static_cast<uint8_t>(len >> 16), static_cast<uint8_t>(len >> 24),
                             0x42,                            0x01};
  ASSERT_EQ(::send(fd, header, sizeof(header), MSG_NOSIGNAL), static_cast<ssize_t>(sizeof(header)));

  auto got = server->receive_result(5.0);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.error().find("malformed frame"), std::string::npos) << got.error();
  EXPECT_EQ(got.error().find("timed out"), std::string::npos) << got.error();
  EXPECT_FALSE(server->is_open());
  EXPECT_FALSE(server->send(Message(1, {1})).ok());
  // The raw peer sees the connection closed, not left hanging.
  uint8_t byte = 0;
  errno = 0;
  const ssize_t r = ::recv(fd, &byte, 1, 0);
  EXPECT_TRUE(r == 0 || (r < 0 && errno == ECONNRESET)) << "recv " << r << ", errno " << errno;
  ::close(fd);
  server->close();
}

TEST(Reactor, WireBytesIdenticalToLegacyFraming) {
  RawPeer peer;
  peer.start();
  ChannelPtr client = reactor_connect(peer.port, {});
  peer.accept_one();

  // Untraced frame with a tail: 4-byte LE length (payload+tail), 2-byte
  // LE type, then the bytes — indistinguishable from the legacy engine.
  ASSERT_TRUE(client->send(Message(0x0142, {10, 11}, Buffer::take({12, 13, 14}))).ok());
  const std::vector<uint8_t> expected = {5, 0, 0, 0, 0x42, 0x01, 10, 11, 12, 13, 14};
  EXPECT_EQ(peer.read_exactly(expected.size()), expected);
  client->close();
}

TEST(Reactor, HlcStampedWireBytesMatchSpec) {
  RawPeer peer;
  peer.start();
  ChannelPtr client = reactor_connect(peer.port, {});
  peer.accept_one();

  // Stamped frame: length excludes headers, the type carries the 0x4000
  // flag, then wall micros (u64 LE) + logical (u32 LE) before the payload.
  Message msg(0x0142, {10, 11});
  msg.hlc_wall = 0x0102030405060708ull;
  msg.hlc_logical = 0x0A0B0C0Du;
  ASSERT_TRUE(client->send(std::move(msg)).ok());
  const std::vector<uint8_t> expected = {2,    0,    0,    0,           // length
                                         0x42, 0x41,                    // type | 0x4000
                                         8,    7,    6,    5, 4, 3, 2, 1,  // wall LE
                                         0x0D, 0x0C, 0x0B, 0x0A,        // logical LE
                                         10,   11};
  EXPECT_EQ(peer.read_exactly(expected.size()), expected);
  client->close();
}

TEST(Reactor, TraceAndHlcCoexistOverEventLoop) {
  std::mutex mu;
  std::condition_variable cv;
  ChannelPtr server;
  auto listener = Reactor::global().listen(0, [&](ChannelPtr accepted) {
    std::lock_guard lock(mu);
    server = std::move(accepted);
    cv.notify_all();
  });
  ASSERT_TRUE(listener.ok()) << listener.error();
  auto dialed = tcp_connect("127.0.0.1", listener.value()->port());
  ChannelPtr client = dialed.ok() ? std::move(dialed).take() : nullptr;
  ASSERT_NE(client, nullptr);
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return server != nullptr; }));
  }

  Message out(0x0133, {1, 2, 3}, Buffer::take({4, 5}));
  out.trace_id = 0xDEADBEEF;
  out.span_id = 77;
  out.hlc_wall = 123'456'789;
  out.hlc_logical = 6;
  ASSERT_TRUE(client->send(std::move(out)).ok());

  auto got = server->receive_result(5.0);
  ASSERT_TRUE(got.ok()) << got.error();
  EXPECT_EQ(got.value().type, 0x0133);
  EXPECT_EQ(got.value().payload, (std::vector<uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(got.value().trace_id, 0xDEADBEEFu);
  EXPECT_EQ(got.value().span_id, 77u);
  EXPECT_EQ(got.value().hlc_wall, 123'456'789u);
  EXPECT_EQ(got.value().hlc_logical, 6u);
  client->close();
  server->close();
}

TEST(Reactor, ZeroCopiesFromEncodeToSocket) {
  RawPeer peer;
  peer.start();
  ChannelPtr client = reactor_connect(peer.port, {});
  peer.accept_one();

  std::vector<uint8_t> encoded(64 * 1024);
  std::iota(encoded.begin(), encoded.end(), 0);
  Buffer tail = Buffer::take(std::move(encoded));  // adopt: not a copy

  const uint64_t copies_before = Buffer::copy_count();
  Message msg(0x0133, {1, 2, 3, 4}, tail);
  ASSERT_TRUE(client->send(std::move(msg)).ok());
  auto wire = peer.read_exactly(6 + 4 + tail.size());
  ASSERT_EQ(wire.size(), 6 + 4 + tail.size());
  EXPECT_TRUE(std::equal(tail.data(), tail.data() + tail.size(), wire.begin() + 10));
  // The acceptance hook: between handing the encoded block to the Message
  // and the kernel seeing it, zero byte duplications happened.
  EXPECT_EQ(Buffer::copy_count(), copies_before);
  client->close();
}

TEST(Reactor, StalledPeerShedsNewestWithoutBlockingPublisher) {
  RawPeer peer;
  peer.start();
  ReactorChannelOptions opts;
  opts.write_queue_limit = 4;
  opts.shed_policy = ShedPolicy::DropNewest;
  ChannelPtr client = reactor_connect(peer.port, opts);
  peer.accept_one();  // accepted but never read: kernel buffers fill

  auto& reg = obs::MetricsRegistry::global();
  const double shed_before = static_cast<double>(reg.counter("rave_net_sends_shed_total").value());

  const auto start = std::chrono::steady_clock::now();
  size_t refused = 0;
  for (int i = 0; i < 24; ++i)
    if (!client->send(Message(1, std::vector<uint8_t>(128 * 1024))).ok()) ++refused;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  // 3 MiB against a ~300 KiB kernel pipe and a 4-frame queue: most sends
  // must shed, and none may stall the caller.
  EXPECT_GT(refused, 0u);
  EXPECT_EQ(client->stats().messages_shed, refused);
  EXPECT_LT(elapsed, 2.0) << "publisher thread blocked on a stalled subscriber";
  EXPECT_GE(static_cast<double>(reg.counter("rave_net_sends_shed_total").value()),
            shed_before + static_cast<double>(refused));
  EXPECT_TRUE(client->is_open());

  // The stall is the subscriber's problem, not the session's: once the
  // peer drains, the same channel delivers again. Retry while the loop
  // thread flushes the backlog into the newly-draining socket.
  std::thread drainer([&] { peer.drain_all(); });
  bool delivered = false;
  for (int i = 0; i < 500 && !delivered; ++i) {
    delivered = client->send(Message(2, {42})).ok();
    if (!delivered) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(delivered);
  client->close();  // linger: flush queued frames, then FIN → drain_all sees EOF
  drainer.join();
}

TEST(Reactor, DropOldestPrefersFreshFrames) {
  RawPeer peer;
  peer.start();
  ReactorChannelOptions opts;
  opts.write_queue_limit = 2;
  opts.shed_policy = ShedPolicy::DropOldest;
  ChannelPtr client = reactor_connect(peer.port, opts);
  peer.accept_one();

  size_t accepted = 0;
  for (int i = 0; i < 16; ++i)
    if (client->send(Message(1, std::vector<uint8_t>(128 * 1024))).ok()) ++accepted;
  // Evicting the oldest makes room for the new frame: sends keep
  // succeeding even though the queue stays bounded.
  EXPECT_GT(accepted, 12u);
  EXPECT_GT(client->stats().messages_shed, 0u);

  std::thread drainer([&] { peer.drain_all(); });
  client->close();
  drainer.join();
}

TEST(Reactor, BlockPolicyWaitsAndCloseUnblocks) {
  RawPeer peer;
  peer.start();
  ReactorChannelOptions opts;
  opts.write_queue_limit = 1;
  opts.shed_policy = ShedPolicy::Block;
  ChannelPtr client = reactor_connect(peer.port, opts);
  peer.accept_one();

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread sender([&] {
    for (int i = 0; i < 16; ++i)
      if (!client->send(Message(1, std::vector<uint8_t>(128 * 1024))).ok()) ++failures;
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(done.load()) << "Block policy did not block against a stalled peer";
  client->close();  // unblocks the waiting send with a channel-closed error
  sender.join();
  EXPECT_TRUE(done.load());
  EXPECT_GT(failures.load(), 0);
  peer.drain_all();
}

TEST(Reactor, WriteQueueDepthGaugeReturnsToBaseline) {
  auto& gauge = obs::MetricsRegistry::global().gauge("rave_net_write_queue_depth");
  const double before = gauge.value();
  RawPeer peer;
  peer.start();
  ReactorChannelOptions opts;
  opts.write_queue_limit = 64;
  opts.shed_policy = ShedPolicy::DropNewest;
  ChannelPtr client = reactor_connect(peer.port, opts);
  peer.accept_one();
  for (int i = 0; i < 8; ++i) (void)client->send(Message(1, std::vector<uint8_t>(64 * 1024)));
  std::thread drainer([&] { peer.drain_all(); });
  client->close();  // flush + retire drops any remaining queue entries
  drainer.join();
  for (int i = 0; i < 100 && gauge.value() != before; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_DOUBLE_EQ(gauge.value(), before);
}

TEST(Reactor, PerChannelStatsAttributeQueueResidency) {
  RawPeer peer;
  peer.start();
  ReactorChannelOptions opts;
  opts.write_queue_limit = 64;
  opts.shed_policy = ShedPolicy::DropNewest;
  ChannelPtr client = reactor_connect(peer.port, opts);
  peer.accept_one();  // accepted but not yet reading: frames queue up

  auto& hist = obs::MetricsRegistry::global().histogram("rave_net_queue_wait_seconds");
  const uint64_t observed_before = hist.count();

  // 8 × 64 KiB against a 32 KiB kernel buffer: after the first frame the
  // socket is full, so the rest must sit in the user-space queue together.
  for (int i = 0; i < 8; ++i) (void)client->send(Message(1, std::vector<uint8_t>(64 * 1024)));
  EXPECT_GE(client->stats().queue_peak_depth, 2u);

  // Let the peer drain; every flushed frame adds its enqueue→sendmsg wait
  // to this channel's attribution (and the process-wide histogram).
  std::thread drainer([&] { peer.drain_all(); });
  double waited = 0;
  for (int i = 0; i < 500 && waited == 0; ++i) {
    waited = client->stats().queue_wait_seconds;
    if (waited == 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(waited, 0.0) << "no queue wait attributed to the stalled channel";
  EXPECT_GT(hist.count(), observed_before);
  client->close();
  drainer.join();
}

TEST(Reactor, FanoutHubSharesOneTailAcrossSubscribers) {
  RawPeer peer_a;
  RawPeer peer_b;
  peer_a.start();
  peer_b.start();
  ChannelPtr sub_a = reactor_connect(peer_a.port, {});
  ChannelPtr sub_b = reactor_connect(peer_b.port, {});
  peer_a.accept_one();
  peer_b.accept_one();

  FanoutHub hub;
  hub.subscribe(sub_a);
  hub.subscribe(sub_b);

  Buffer tail = Buffer::take(std::vector<uint8_t>(32 * 1024, 0xCD));
  const uint64_t copies_before = Buffer::copy_count();
  EXPECT_EQ(hub.publish(Message(0x0133, {1}, tail)), 2u);
  // One encode, two subscribers, zero duplications of the encoded bytes.
  EXPECT_EQ(Buffer::copy_count(), copies_before);
  EXPECT_EQ(peer_a.read_exactly(6 + 1 + tail.size()).size(), 6 + 1 + tail.size());
  EXPECT_EQ(peer_b.read_exactly(6 + 1 + tail.size()).size(), 6 + 1 + tail.size());
  sub_a->close();
  sub_b->close();
}

// ------------------------------------------------------------ send_batch ----

// The wire framing of an untraced, unstamped message: u32 LE payload
// length, u16 LE type, payload, tail.
std::vector<uint8_t> framed(const Message& m) {
  std::vector<uint8_t> out;
  const auto len = static_cast<uint32_t>(m.payload_size());
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(len >> (8 * i)));
  out.push_back(static_cast<uint8_t>(m.type & 0xFF));
  out.push_back(static_cast<uint8_t>(m.type >> 8));
  out.insert(out.end(), m.payload.begin(), m.payload.end());
  m.tail.append_to(out);
  return out;
}

// `count` distinct frames of assorted sizes, every third one with a shared
// tail, so a gathered write mixes one-, two- and three-piece frames.
std::vector<Message> numbered_frames(size_t count, size_t max_bytes) {
  std::vector<Message> out;
  for (size_t i = 0; i < count; ++i) {
    std::vector<uint8_t> body(1 + (i * 7919) % max_bytes);
    for (size_t b = 0; b < body.size(); ++b) body[b] = static_cast<uint8_t>(i + b * 31);
    const auto type = static_cast<uint16_t>(0x0100 + i % 64);
    if (i % 3 == 0)
      out.emplace_back(type, std::vector<uint8_t>{static_cast<uint8_t>(i)},
                       Buffer::take(std::move(body)));
    else
      out.emplace_back(type, std::move(body));
  }
  return out;
}

size_t framed_size(const std::vector<Message>& frames) {
  size_t n = 0;
  for (const Message& m : frames) n += m.wire_size();
  return n;
}

TEST(Reactor, SendBatchKeepsOrderAndBytes) {
  RawPeer peer;
  peer.start();
  ChannelPtr client = reactor_connect(peer.port, {});
  peer.accept_one();

  const std::vector<Message> frames = numbered_frames(300, 3000);
  std::vector<uint8_t> expected;
  for (const Message& m : frames) {
    const std::vector<uint8_t> one = framed(m);
    expected.insert(expected.end(), one.begin(), one.end());
  }
  std::vector<uint8_t> got;
  std::thread reader([&] { got = peer.read_exactly(expected.size()); });
  const std::vector<util::Status> sent = client->send_batch(frames);
  ASSERT_EQ(sent.size(), frames.size());
  for (const util::Status& status : sent) EXPECT_TRUE(status.ok()) << status.error();
  reader.join();
  EXPECT_EQ(got, expected);
  EXPECT_EQ(client->stats().messages_sent, frames.size());
  EXPECT_EQ(client->stats().bytes_sent, expected.size());
  EXPECT_EQ(client->stats().messages_shed, 0u);
  client->close();
}

TEST(Reactor, SendBatchResumesAfterPartialWrite) {
  RawPeer peer;
  peer.start();
  ChannelPtr client = reactor_connect(peer.port, {});  // 32 KiB SO_SNDBUF
  peer.accept_one();  // not reading yet: the first gather stops mid-frame

  // ~1.5 MiB of odd-sized frames against a 32 KiB send buffer: the socket
  // takes a prefix that ends inside some frame, and the loop thread must
  // resume from that byte once the peer reads.
  const std::vector<Message> frames = numbered_frames(120, 25'000);
  const std::vector<util::Status> sent = client->send_batch(frames);
  for (const util::Status& status : sent) ASSERT_TRUE(status.ok()) << status.error();
  EXPECT_GE(client->stats().queue_peak_depth, 2u);

  std::vector<uint8_t> expected;
  for (const Message& m : frames) {
    const std::vector<uint8_t> one = framed(m);
    expected.insert(expected.end(), one.begin(), one.end());
  }
  EXPECT_EQ(peer.read_exactly(expected.size()), expected);
  client->close();
}

// Per ShedPolicy: a batch larger than write_queue_limit against a peer
// that does not read sheds exactly what one send() per message sheds, and
// the frames that survive reach the peer byte for byte the same.
TEST(Reactor, SendBatchShedsLikePerMessageSends) {
  {
    // An idle socket: one send() per message flushes each frame into the
    // kernel, so a queue of 8 never fills. A batch of 300 small frames must
    // not shed either: it flushes whenever its queue fills.
    RawPeer peer;
    peer.start();
    ReactorChannelOptions opts;
    opts.write_queue_limit = 8;
    opts.shed_policy = ShedPolicy::DropNewest;
    ChannelPtr client = reactor_connect(peer.port, opts);
    peer.accept_one();
    const std::vector<Message> frames = numbered_frames(300, 40);  // < the 32 KiB buffer
    for (const util::Status& status : client->send_batch(frames))
      EXPECT_TRUE(status.ok()) << status.error();
    EXPECT_EQ(client->stats().messages_shed, 0u);
    EXPECT_EQ(peer.read_exactly(framed_size(frames)).size(), framed_size(frames));
    client->close();
  }
  for (const ShedPolicy policy : {ShedPolicy::DropNewest, ShedPolicy::DropOldest,
                                  ShedPolicy::Block}) {
    SCOPED_TRACE(static_cast<int>(policy));
    ReactorChannelOptions opts;
    opts.write_queue_limit = 8;
    opts.shed_policy = policy;
    std::vector<Message> big;
    for (size_t i = 0; i < 24; ++i)
      big.emplace_back(static_cast<uint16_t>(0x0100 + i),
                       std::vector<uint8_t>(8 * 1024, static_cast<uint8_t>(i)));

    struct Run {
      std::vector<bool> accepted;
      ChannelStats stats;
      std::vector<uint8_t> received;
    };
    const auto run = [&](bool batched) {
      RawPeer peer;
      peer.start();
      ChannelPtr client = reactor_connect(peer.port, opts);
      peer.accept_one();
      Run out;
      // Fill the kernel's buffers first, so neither run can get a frame
      // into them: what is kept or shed is then the write queue's doing
      // alone, not how much the kernel happened to take per sendmsg.
      const Message plug(0x00FF, std::vector<uint8_t>(512 * 1024, 0xEE));
      EXPECT_TRUE(client->send(plug).ok());
      const size_t all_bytes = plug.wire_size() + framed_size(big);
      // Block never sheds; it waits for a reader, so only it gets one
      // while sending.
      std::thread reader;
      if (policy == ShedPolicy::Block)
        reader = std::thread([&] { out.received = peer.read_exactly(all_bytes); });
      if (batched) {
        for (const util::Status& status : client->send_batch(big))
          out.accepted.push_back(status.ok());
      } else {
        for (const Message& m : big) out.accepted.push_back(client->send(m).ok());
      }
      out.stats = client->stats();
      if (policy != ShedPolicy::Block) {
        reader = std::thread([&] { out.received = peer.read_exactly(all_bytes); });
        client->close();  // linger: flush what is queued, then FIN
      }
      reader.join();
      client->close();
      return out;
    };
    const Run single = run(false);
    const Run batch = run(true);
    EXPECT_EQ(batch.accepted, single.accepted);
    EXPECT_EQ(batch.stats.messages_shed, single.stats.messages_shed);
    EXPECT_EQ(batch.stats.messages_sent, single.stats.messages_sent);
    EXPECT_EQ(batch.received, single.received);
    if (policy == ShedPolicy::Block) {
      EXPECT_EQ(batch.stats.messages_shed, 0u);
      EXPECT_EQ(batch.received.size(), 512u * 1024 + 6 + framed_size(big));
    } else {
      EXPECT_GT(batch.stats.messages_shed, 0u);
    }
  }
}

// ---------------------------------------------------------------- fanout ----

TEST(FanoutRelay, CountsUpstreamForwardFailures) {
  auto [relay_end, publisher_end] = make_channel_pair();
  FanoutRelay relay(relay_end);
  auto [sub_hub_end, sub_client_end] = make_channel_pair();
  relay.hub().subscribe(sub_hub_end);

  // A healthy upstream forwards cleanly.
  ASSERT_TRUE(sub_client_end->send(Message(0x0135, {1})).ok());
  relay.pump();
  EXPECT_EQ(relay.stats().requests_forwarded, 1u);
  EXPECT_EQ(relay.stats().upstream_errors, 0u);
  EXPECT_TRUE(publisher_end->try_receive().has_value());

  // Kill the upstream: the forward now fails, and the failure is counted
  // instead of vanishing into (void).
  const uint64_t counter_before =
      obs::MetricsRegistry::global().counter("rave_relay_upstream_errors_total").value();
  publisher_end->close();
  ASSERT_TRUE(sub_client_end->send(Message(0x0135, {2})).ok());
  relay.pump();
  EXPECT_EQ(relay.stats().requests_forwarded, 2u);
  EXPECT_EQ(relay.stats().upstream_errors, 1u);
  EXPECT_EQ(obs::MetricsRegistry::global().counter("rave_relay_upstream_errors_total").value(),
            counter_before + 1);
}

// --- environment parses (RAVE_NET_QUEUE, RAVE_NET_SHED) ---------------------

TEST(EnvParse, QueueLimitTakesPositiveCountsOnly) {
  const struct {
    const char* text;
    bool ok;
    size_t limit;
  } cases[] = {
      {"1", true, 1},   {"256", true, 256}, {"1024", true, 1024},
      {"0", false, 0},  {"-5", false, 0},   {"64k", false, 0},
      {"", false, 0},   {"8 ", false, 0},   {"99999999999999999999", false, 0},
      {nullptr, false, 0},
  };
  for (const auto& c : cases) {
    size_t limit = 1024;
    EXPECT_EQ(parse_queue_limit(c.text, limit), c.ok) << (c.text ? c.text : "(null)");
    EXPECT_EQ(limit, c.ok ? c.limit : 1024u) << (c.text ? c.text : "(null)");
  }
}

TEST(EnvParse, ShedPolicyNamesRoundTripAndRejectsTheRest) {
  const struct {
    const char* text;
    bool ok;
    ShedPolicy policy;
  } cases[] = {
      {"block", true, ShedPolicy::Block},
      {"drop-newest", true, ShedPolicy::DropNewest},
      {"drop-oldest", true, ShedPolicy::DropOldest},
      {"drop_oldest", false, {}},
      {"Block", false, {}},
      {"", false, {}},
      {nullptr, false, {}},
  };
  for (const auto& c : cases) {
    ShedPolicy policy = ShedPolicy::Block;
    EXPECT_EQ(parse_shed_policy(c.text, policy), c.ok) << (c.text ? c.text : "(null)");
    if (c.ok) {
      EXPECT_EQ(policy, c.policy) << c.text;
      EXPECT_STREQ(shed_policy_name(policy), c.text);
    } else {
      EXPECT_EQ(policy, ShedPolicy::Block);  // untouched on failure
    }
  }
}

}  // namespace
}  // namespace rave::net
