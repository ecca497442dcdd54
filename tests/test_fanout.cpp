// Fan-out tier tests: content-addressed tile caching, per-class encode
// memoization, relay trees, and the property that cached-tile delivery is
// byte-identical to full-frame delivery across codecs, quality classes and
// cache-eviction schedules — including the fault lane where a relay dies
// mid-frame and subscribers recover with no stale tiles.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>

#include "compress/tile_cache.hpp"
#include "core/frame_stream.hpp"
#include "core/grid.hpp"
#include "mesh/primitives.hpp"
#include "net/fanout.hpp"
#include "net/reactor.hpp"
#include "net/simlink.hpp"
#include "net/tcp.hpp"
#include "obs/trace.hpp"
#include "render/compositor.hpp"
#include "render/rasterizer.hpp"
#include "util/clock.hpp"

namespace rave::core {
namespace {

using compress::CodecKind;
using compress::QualityClass;
using render::Image;
using render::Tile;

Image test_image(int w, int h, int seed) {
  Image img(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      img.set_pixel(x, y, static_cast<uint8_t>((x * 7 + seed * 13) & 0xFF),
                    static_cast<uint8_t>((y * 11 + seed) & 0xFF),
                    static_cast<uint8_t>((x + y * 3 + seed * 5) & 0xFF));
  return img;
}

// What a subscriber of `quality` would present under full-frame delivery:
// every tile encoded and decoded through the class codec, no caching
// anywhere. The byte-identity property compares assembled frames to this.
Image full_delivery_reference(const Image& frame, QualityClass quality, int tile_size) {
  const auto codec = compress::make_codec(compress::codec_for_quality(quality));
  Image out(frame.width, frame.height);
  for (const Tile& tile : render::tile_grid(frame.width, frame.height, tile_size)) {
    const Image pixels = frame.extract(tile);
    auto decoded = codec->decode(codec->encode(pixels, nullptr), nullptr);
    EXPECT_TRUE(decoded.ok());
    out.insert(tile, decoded.value());
  }
  return out;
}

// --- FanoutHub (satellite: lock scope + byte accounting) ---------------------

TEST(FanoutHub, CountsBytesPerDeliveryAndSkipsFailedSends) {
  net::FanoutHub hub;
  auto [a_pub, a_sub] = net::make_channel_pair();
  auto [b_pub, b_sub] = net::make_channel_pair();
  hub.subscribe(a_pub);
  hub.subscribe(b_pub);

  net::Message first{0x41, {1, 2, 3}};
  net::Message second{0x42, {4, 5, 6, 7}};
  EXPECT_EQ(hub.publish(first), 2u);
  EXPECT_TRUE(b_sub->try_receive().has_value());
  b_sub->close();  // b's next send fails
  EXPECT_EQ(hub.publish(second), 1u);
  // Unicast counts actual deliveries only; multicast counts the payload
  // once per publish that reached anyone.
  EXPECT_EQ(hub.unicast_bytes(), 2 * first.wire_size() + second.wire_size());
  EXPECT_EQ(hub.multicast_bytes(), first.wire_size() + second.wire_size());
  EXPECT_TRUE(a_sub->try_receive().has_value());
  EXPECT_TRUE(a_sub->try_receive().has_value());
}

// Forwards to an in-process endpoint, asking the hub for its subscriber
// count inside every send.
class ReentrantChannel final : public net::Channel {
 public:
  ReentrantChannel(net::FanoutHub& hub, net::ChannelPtr inner)
      : hub_(&hub), inner_(std::move(inner)) {}
  util::Status send(net::Message message) override {
    (void)hub_->subscriber_count();  // re-entrant lock acquisition
    return inner_->send(std::move(message));
  }
  util::Result<net::Message> receive_result(double timeout_seconds) override {
    return inner_->receive_result(timeout_seconds);
  }
  void close() override { inner_->close(); }
  [[nodiscard]] bool is_open() const override { return inner_->is_open(); }
  [[nodiscard]] net::ChannelStats stats() const override { return inner_->stats(); }

 private:
  net::FanoutHub* hub_;
  net::ChannelPtr inner_;
};

TEST(FanoutHub, PublishRunsOutsideTheLock) {
  // A send that re-enters the hub would deadlock if publish held the
  // mutex across delivery; with snapshot-then-send it must not.
  net::FanoutHub hub;
  auto [pub, sub] = net::make_channel_pair();
  hub.subscribe(std::make_shared<ReentrantChannel>(hub, pub));
  EXPECT_EQ(hub.publish(net::Message{1, {9}}), 1u);
  EXPECT_TRUE(sub->try_receive().has_value());
}

TEST(FanoutHub, ConcurrentPublishAndChurn) {
  // tsan lane: publishers race subscriber churn; counters stay coherent.
  net::FanoutHub hub;
  auto [keep_pub, keep_sub] = net::make_channel_pair();
  hub.subscribe(keep_pub);
  std::thread churn([&] {
    for (int i = 0; i < 200; ++i) {
      auto [p, s] = net::make_channel_pair();
      const auto id = hub.subscribe(p);
      hub.unsubscribe(id);
    }
  });
  std::thread pub_thread([&] {
    for (int i = 0; i < 200; ++i) (void)hub.publish(net::Message{7, {1, 2}});
  });
  churn.join();
  pub_thread.join();
  size_t received = 0;
  while (keep_sub->try_receive().has_value()) ++received;
  EXPECT_EQ(received, 200u);
  EXPECT_GE(hub.unicast_bytes(), hub.multicast_bytes());
}

// --- EncodeMemo / TileStore --------------------------------------------------

TEST(EncodeMemo, SharesEncodesAndTracksSavings) {
  compress::EncodeMemo memo(8);
  const Image tile = test_image(32, 32, 1);
  const uint64_t hash = render::hash_image(tile);
  const net::Buffer first = memo.encode_serialized(hash, QualityClass::Pda, tile);
  const net::Buffer again = memo.encode_serialized(hash, QualityClass::Pda, tile);
  EXPECT_EQ(first.data(), again.data());  // shared, not re-encoded
  EXPECT_EQ(memo.stats().misses, 1u);
  EXPECT_EQ(memo.stats().hits, 1u);
  EXPECT_EQ(memo.stats().bytes_saved, first.size());
  // A different class encodes separately even for the same content.
  const net::Buffer lossless = memo.encode_serialized(hash, QualityClass::Workstation, tile);
  const auto codec_of = [](const net::Buffer& b) {
    return compress::EncodedImage::read({b.data(), b.size()}).value().codec;
  };
  EXPECT_NE(codec_of(lossless), codec_of(first));
  EXPECT_EQ(memo.stats().misses, 2u);
  EXPECT_TRUE(memo.contains(hash, QualityClass::Workstation));
  EXPECT_FALSE(memo.contains(hash + 1, QualityClass::Workstation));
}

TEST(EncodeMemo, EvictsLeastRecentlyUsed) {
  compress::EncodeMemo memo(2);
  const Image a = test_image(8, 8, 1), b = test_image(8, 8, 2), c = test_image(8, 8, 3);
  (void)memo.encode_serialized(1, QualityClass::Pda, a);
  (void)memo.encode_serialized(2, QualityClass::Pda, b);
  (void)memo.encode_serialized(1, QualityClass::Pda, a);  // refresh 1
  (void)memo.encode_serialized(3, QualityClass::Pda, c);  // evicts 2
  EXPECT_EQ(memo.stats().evictions, 1u);
  EXPECT_TRUE(memo.contains(1, QualityClass::Pda));
  EXPECT_FALSE(memo.contains(2, QualityClass::Pda));
  EXPECT_EQ(memo.size(), 2u);
}

TEST(TileStore, LruEvictionOnlyCostsMisses) {
  compress::TileStore store(2);
  store.insert(1, test_image(4, 4, 1));
  store.insert(2, test_image(4, 4, 2));
  ASSERT_NE(store.lookup(1), nullptr);  // refresh 1 → 2 is now LRU
  store.insert(3, test_image(4, 4, 3));
  EXPECT_EQ(store.lookup(2), nullptr);
  EXPECT_NE(store.lookup(3), nullptr);
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_EQ(store.stats().inserts, 3u);
}

// --- protocol round trips ----------------------------------------------------

TEST(StreamProtocol, MessagesRoundTrip) {
  StreamSubscribeMsg sub{"demo", QualityClass::Pda};
  auto sub2 = decode_stream_subscribe(encode(sub));
  ASSERT_TRUE(sub2.ok());
  EXPECT_EQ(sub2.value().session, "demo");
  EXPECT_EQ(sub2.value().quality, QualityClass::Pda);

  FrameBeginMsg begin{41, 640, 480, 64, 80, QualityClass::Workstation};
  auto begin2 = decode_frame_begin(encode(begin));
  ASSERT_TRUE(begin2.ok());
  EXPECT_EQ(begin2.value().frame_id, 41u);
  EXPECT_EQ(begin2.value().tile_count, 80u);
  EXPECT_FALSE(begin2.value().render_seconds.has_value());
  // Only a pull reply carries the trailing render time; a subscribed
  // stream's header stays as it was.
  FrameBeginMsg pulled = begin;
  pulled.render_seconds = 0.091;
  const net::Message pulled_wire = encode(pulled);
  EXPECT_EQ(pulled_wire.payload.size(), encode(begin).payload.size() + sizeof(double));
  auto pulled2 = decode_frame_begin(pulled_wire);
  ASSERT_TRUE(pulled2.ok());
  EXPECT_EQ(pulled2.value().render_seconds, 0.091);

  // Unknown quality codes fail the decode rather than index per-class state.
  net::Message bad_class = encode(StreamSubscribeMsg{"demo", QualityClass::Workstation});
  bad_class.payload.back() = 7;
  EXPECT_FALSE(decode_stream_subscribe(bad_class).ok());

  TileRefMsg ref{41, 17, 0x1234567890abcdefull};
  const net::Message ref_wire = encode(ref);
  // The whole point: an unchanged tile costs ~16 bytes on the wire.
  EXPECT_LE(ref_wire.payload.size(), 16u);
  auto ref2 = decode_tile_ref(ref_wire);
  ASSERT_TRUE(ref2.ok());
  EXPECT_EQ(ref2.value().hash, ref.hash);
  EXPECT_EQ(ref2.value().tile_index, 17);

  TileDataMsg data;
  data.frame_id = 41;
  data.tile_index = 3;
  data.tile = Tile{64, 128, 64, 64};
  data.hash = 99;
  data.encoded = {1, 2, 3, 4, 5};
  const net::Message data_wire = encode(data);
  auto data2 = view_tile_data(data_wire);
  ASSERT_TRUE(data2.ok());
  EXPECT_EQ(data2.value().tile, data.tile);
  EXPECT_EQ(std::vector<uint8_t>(data2.value().encoded.begin(), data2.value().encoded.end()),
            data.encoded);

  FrameEndMsg end{41, 80, 0xfeedfacecafebeefull};
  auto end2 = decode_frame_end(encode(end));
  ASSERT_TRUE(end2.ok());
  EXPECT_EQ(end2.value().frame_hash, end.frame_hash);

  TileMissMsg miss{0xabcull, 41, 7, QualityClass::Pda};
  auto miss2 = decode_tile_miss(encode(miss));
  ASSERT_TRUE(miss2.ok());
  EXPECT_EQ(miss2.value().hash, 0xabcull);
  EXPECT_EQ(miss2.value().quality, QualityClass::Pda);
}

// --- publisher ↔ receiver ----------------------------------------------------

struct StreamPair {
  FrameStreamPublisher publisher;
  std::unique_ptr<FrameStreamReceiver> receiver;
  std::function<void()> pump;

  StreamPair(util::SimClock& clock, QualityClass quality, FrameStreamOptions options)
      : publisher(options) {
    auto [server_end, client_end] = net::make_channel_pair();
    publisher.subscribe(server_end, quality);
    receiver = std::make_unique<FrameStreamReceiver>(client_end, quality, options);
    pump = [this] { (void)publisher.pump(); };
  }
};

TEST(FrameStream, StaticSceneShipsRefsAfterKeyframe) {
  util::SimClock clock;
  FrameStreamOptions options;
  options.tile_size = 32;
  StreamPair pair(clock, QualityClass::Workstation, options);
  const Image frame = test_image(128, 96, 1);

  const auto first = pair.publisher.publish_frame(frame);
  EXPECT_EQ(first.tiles_data, first.tiles_total);  // keyframe
  auto got1 = pair.receiver->next_frame(clock, 1.0, pair.pump);
  ASSERT_TRUE(got1.ok()) << got1.error();
  EXPECT_EQ(got1.value().rgb, frame.rgb);  // lossless class: exact

  const auto second = pair.publisher.publish_frame(frame);
  EXPECT_EQ(second.tiles_ref, second.tiles_total);  // nothing changed
  EXPECT_LT(second.ref_bytes, first.data_bytes / 20);
  auto got2 = pair.receiver->next_frame(clock, 1.0, pair.pump);
  ASSERT_TRUE(got2.ok()) << got2.error();
  EXPECT_EQ(got2.value().rgb, frame.rgb);
  EXPECT_GT(pair.receiver->stats().refs_resolved, 0u);
  EXPECT_EQ(pair.receiver->stats().miss_requests, 0u);
}

TEST(FrameStream, PartialChangeShipsOnlyChangedTiles) {
  util::SimClock clock;
  FrameStreamOptions options;
  options.tile_size = 32;
  StreamPair pair(clock, QualityClass::Workstation, options);
  Image frame = test_image(128, 128, 2);
  (void)pair.publisher.publish_frame(frame);
  ASSERT_TRUE(pair.receiver->next_frame(clock, 1.0, pair.pump).ok());

  frame.set_pixel(5, 5, 255, 0, 0);  // touches exactly one 32px tile
  const auto report = pair.publisher.publish_frame(frame);
  EXPECT_EQ(report.tiles_data, 1u);
  EXPECT_EQ(report.tiles_ref, report.tiles_total - 1);
  auto got = pair.receiver->next_frame(clock, 1.0, pair.pump);
  ASSERT_TRUE(got.ok()) << got.error();
  EXPECT_EQ(got.value().rgb, frame.rgb);
}

// A Pda frame carries no checked frame hash, so the receiver's own guards
// keep a foreign tile off the screen: a TileData in another class's codec
// is neither placed nor stored (a later ref to its hash would resolve to
// it), and a tile whose shape differs from its grid slot is not placed (a
// ref that finds one in the store asks upstream instead).
TEST(FrameStream, ForgedPdaTilesNeverReachAPresentedFrame) {
  util::SimClock clock;
  FrameStreamOptions options;
  options.tile_size = 32;
  FrameStreamPublisher publisher(options);
  // publisher → test hop → receiver, so forgeries can be slipped in.
  auto [pub_end, hop_in] = net::make_channel_pair();
  auto [hop_out, rcv_end] = net::make_channel_pair();
  publisher.subscribe(pub_end, QualityClass::Pda);
  FrameStreamReceiver receiver(rcv_end, QualityClass::Pda, options);

  const Image frame = test_image(96, 64, 4);
  const Tile slot = render::tile_grid(96, 64, 32)[0];
  const uint64_t slot_hash = render::hash_tile(frame, slot);
  const auto forged = [&](uint32_t frame_id, CodecKind codec, int size) {
    Image magenta(size, size);
    for (int y = 0; y < size; ++y)
      for (int x = 0; x < size; ++x) magenta.set_pixel(x, y, 255, 0, 255);
    return encode(TileDataMsg{frame_id, 0, slot, slot_hash,
                              compress::make_codec(codec)->encode(magenta, nullptr).serialize()});
  };
  bool forge = true;
  const auto pump = [&] {
    (void)publisher.pump();
    while (auto msg = hop_in->try_receive()) {
      std::optional<uint32_t> begun;
      if (msg->type == kMsgFrameBegin) begun = decode_frame_begin(*msg).value().frame_id;
      (void)hop_out->send(*std::move(msg));
      if (begun && forge) {
        // Ahead of the genuine tile 0: the slot's shape in the lossless
        // class's codec, then the Pda codec in a smaller shape.
        (void)hop_out->send(forged(*begun, CodecKind::Rle, slot.width));
        (void)hop_out->send(forged(*begun, CodecKind::Quantize, 16));
        forge = false;
      }
    }
    while (auto msg = hop_out->try_receive()) (void)hop_in->send(*std::move(msg));
  };

  const Image want = full_delivery_reference(frame, QualityClass::Pda, 32);
  for (int step = 0; step < 2; ++step) {
    (void)publisher.publish_frame(frame);
    auto got = receiver.next_frame(clock, 1.0, pump);
    ASSERT_TRUE(got.ok()) << got.error();
    EXPECT_EQ(got.value().rgb, want.rgb) << "frame " << step;
  }
  EXPECT_FALSE(forge);
  // The second frame is all refs; tile 0's finds the 16-px forgery under
  // its hash and resolves through one miss round-trip instead.
  EXPECT_EQ(receiver.stats().miss_requests, 1u);
}

// The lossless twin: a forged tile in the class's own codec and the slot's
// own shape, under the slot's genuine hash, takes the genuine tile's place
// on the wire. A Workstation receiver checks each data tile's hash before
// placing or storing it, so the forgery never fills the slot: the slot
// asks upstream once (TileMiss) and gets the genuine tile, and the
// unchanged frames after it resolve every ref from the store and pass the
// frame integrity check.
TEST(FrameStream, ForgedWorkstationTilesNeverReachAPresentedFrame) {
  util::SimClock clock;
  FrameStreamOptions options;
  options.tile_size = 32;
  FrameStreamPublisher publisher(options);
  auto [pub_end, hop_in] = net::make_channel_pair();
  auto [hop_out, rcv_end] = net::make_channel_pair();
  publisher.subscribe(pub_end, QualityClass::Workstation);
  FrameStreamReceiver receiver(rcv_end, QualityClass::Workstation, options);

  const Image frame = test_image(96, 64, 5);
  const Tile slot = render::tile_grid(96, 64, 32)[0];
  const uint64_t slot_hash = render::hash_tile(frame, slot);
  Image magenta(slot.width, slot.height);
  for (int y = 0; y < slot.height; ++y)
    for (int x = 0; x < slot.width; ++x) magenta.set_pixel(x, y, 255, 0, 255);
  bool forge = true;
  const auto pump = [&] {
    (void)publisher.pump();
    while (auto msg = hop_in->try_receive()) {
      if (forge && msg->type == kMsgTileData && view_tile_data(*msg).value().tile_index == 0) {
        // The first frame's tile 0: send the forgery instead.
        (void)hop_out->send(encode(TileDataMsg{
            view_tile_data(*msg).value().frame_id, 0, slot, slot_hash,
            compress::make_codec(CodecKind::Rle)->encode(magenta, nullptr).serialize()}));
        forge = false;
        continue;
      }
      (void)hop_out->send(*std::move(msg));
    }
    while (auto msg = hop_out->try_receive()) (void)hop_in->send(*std::move(msg));
  };

  for (int step = 0; step < 4; ++step) {
    (void)publisher.publish_frame(frame);
    auto got = receiver.next_frame(clock, 1.0, pump);
    ASSERT_TRUE(got.ok()) << "frame " << step << ": " << got.error();
    EXPECT_EQ(got.value().rgb, frame.rgb) << "frame " << step;
  }
  EXPECT_FALSE(forge);
  // Only the forged slot asked upstream; frames 1-3 are all refs, and
  // every one resolved from the store.
  EXPECT_EQ(receiver.stats().miss_requests, 1u);
  EXPECT_EQ(publisher.stats().miss_replies, 1u);
}

TEST(FrameStream, LateJoinerForcesKeyframeForItsClass) {
  util::SimClock clock;
  FrameStreamOptions options;
  options.tile_size = 32;
  FrameStreamPublisher publisher(options);
  auto [a_srv, a_cli] = net::make_channel_pair();
  publisher.subscribe(a_srv, QualityClass::Workstation);
  FrameStreamReceiver a(a_cli, QualityClass::Workstation, options);
  const Image frame = test_image(96, 64, 3);
  const auto pump = [&] { (void)publisher.pump(); };
  (void)publisher.publish_frame(frame);
  ASSERT_TRUE(a.next_frame(clock, 1.0, pump).ok());

  // B joins between frames; the next frame must be all data for the class
  // (B has no store), and the memo absorbs the duplicate encode work.
  auto [b_srv, b_cli] = net::make_channel_pair();
  publisher.subscribe(b_srv, QualityClass::Workstation);
  FrameStreamReceiver b(b_cli, QualityClass::Workstation, options);
  const auto report = publisher.publish_frame(frame);
  EXPECT_EQ(report.tiles_data, report.tiles_total);
  EXPECT_GT(publisher.memo().stats().hits, 0u);  // re-ship reused encodes
  auto got_a = a.next_frame(clock, 1.0, pump);
  auto got_b = b.next_frame(clock, 1.0, pump);
  ASSERT_TRUE(got_a.ok());
  ASSERT_TRUE(got_b.ok());
  EXPECT_EQ(got_a.value().rgb, frame.rgb);
  EXPECT_EQ(got_b.value().rgb, frame.rgb);
}

// Property: cached-tile delivery is byte-identical to full-frame delivery
// for every quality class × eviction schedule, even when the subscriber's
TEST(FrameStream, OverSimulatedWirelessLinkRefsCutDeliveryTime) {
  // End-to-end over net/simlink: a PDA subscriber on the paper's shared
  // 11 Mbit wireless link. The second (unchanged) frame ships as tile refs,
  // so its virtual delivery time must collapse relative to the keyframe.
  util::SimClock clock;
  FrameStreamOptions options;
  options.tile_size = 32;
  FrameStreamPublisher publisher(options);
  auto [server_end, client_end] = net::make_simulated_pair(clock, net::wireless_11mbit());
  publisher.subscribe(server_end, QualityClass::Pda);
  FrameStreamReceiver receiver(client_end, QualityClass::Pda, options);
  const auto pump = [&] { (void)publisher.pump(); };

  const Image frame = test_image(160, 120, 6);
  (void)publisher.publish_frame(frame);
  const double t0 = clock.now();
  auto first = receiver.next_frame(clock, 30.0, pump);
  ASSERT_TRUE(first.ok()) << first.error();
  const double keyframe_seconds = clock.now() - t0;

  (void)publisher.publish_frame(frame);
  const double t1 = clock.now();
  auto second = receiver.next_frame(clock, 30.0, pump);
  ASSERT_TRUE(second.ok()) << second.error();
  const double ref_seconds = clock.now() - t1;

  EXPECT_EQ(second.value().rgb, first.value().rgb);
  EXPECT_EQ(second.value().rgb,
            full_delivery_reference(frame, QualityClass::Pda, options.tile_size).rgb);
  EXPECT_GT(receiver.stats().refs_resolved, 0u);
  EXPECT_GT(keyframe_seconds, 0.0);
  EXPECT_LT(ref_seconds, keyframe_seconds / 2);
}

// tile store is too small to hold a frame (forcing miss fallbacks).
class DeliveryIdentity
    : public testing::TestWithParam<std::tuple<QualityClass, size_t>> {};

TEST_P(DeliveryIdentity, CachedEqualsFullDelivery) {
  const auto [quality, store_capacity] = GetParam();
  util::SimClock clock;
  FrameStreamOptions options;
  options.tile_size = 24;                       // ragged edges included
  options.tile_store_capacity = store_capacity;  // 1 = pathological thrash
  StreamPair pair(clock, quality, options);

  Image frame = test_image(100, 80, 4);
  for (int step = 0; step < 6; ++step) {
    // Orbit-like churn: shift a band of pixels each step so some tiles
    // change and some repeat content seen frames ago.
    for (int y = step * 10; y < step * 10 + 10 && y < frame.height; ++y)
      for (int x = 0; x < frame.width; ++x)
        frame.set_pixel(x, y, static_cast<uint8_t>(step * 40), 0,
                        static_cast<uint8_t>(x & 0xFF));
    (void)pair.publisher.publish_frame(frame);
    auto got = pair.receiver->next_frame(clock, 1.0, pair.pump);
    ASSERT_TRUE(got.ok()) << "step " << step << ": " << got.error();
    const Image reference = full_delivery_reference(frame, quality, options.tile_size);
    ASSERT_EQ(got.value().rgb, reference.rgb) << "step " << step;
  }
  if (store_capacity == 1) {
    // The thrashing store must have exercised the fallback path.
    EXPECT_GT(pair.receiver->stats().miss_requests, 0u);
    EXPECT_GT(pair.publisher.stats().miss_replies, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, DeliveryIdentity,
    testing::Combine(testing::Values(QualityClass::Workstation, QualityClass::Pda),
                     testing::Values(size_t{1}, size_t{4}, size_t{1024})),
    [](const auto& info) {
      return std::string(compress::quality_name(std::get<0>(info.param))) + "_store" +
             std::to_string(std::get<1>(info.param));
    });

// --- pooled frame coding -----------------------------------------------------

// An orbit-like frame: a flat background, so many tiles of one frame share
// a content hash, and a shaded disc whose centre circles the frame.
Image orbit_frame(int w, int h, int step) {
  Image img(w, h);
  const double angle = 0.6 * step;
  const double cx = w / 2.0 + w / 4.0 * std::cos(angle);
  const double cy = h / 2.0 + h / 4.0 * std::sin(angle);
  const double r = h / 3.0;
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      const double dx = x - cx, dy = y - cy;
      if (dx * dx + dy * dy < r * r)
        img.set_pixel(x, y, static_cast<uint8_t>(128 + dx * 2), static_cast<uint8_t>(128 + dy * 2),
                      static_cast<uint8_t>(step * 17));
      else
        img.set_pixel(x, y, 20, 30, 40);
    }
  return img;
}

// Publishing through a pool changes nothing a subscriber or an operator
// can see: per class, the same wire messages in the same order, the same
// assembled frames, the same FrameReports and the same memo accounting as
// the serial publisher — with a memo smaller than one frame's data tiles
// (so the frame's own misses evict entries it needs again) and background
// tiles repeating one hash within a frame.
TEST(FrameStream, PooledFramesEqualSerial) {
  util::ThreadPool pool(4);
  FrameStreamOptions options;
  options.tile_size = 16;
  options.encode_memo_capacity = 6;
  const std::vector<QualityClass> classes = {QualityClass::Workstation, QualityClass::Pda,
                                             QualityClass::Raw};
  struct Wire {
    uint16_t type;
    std::vector<uint8_t> payload;
    bool operator==(const Wire&) const = default;
  };
  struct Side {
    explicit Side(FrameStreamOptions options, util::ThreadPool* pool)
        : publisher(options, pool) {}
    FrameStreamPublisher publisher;
    std::vector<net::ChannelPtr> taps;      // what the publisher sent, per class
    std::vector<net::ChannelPtr> forwards;  // into the receiver, per class
    std::vector<std::unique_ptr<FrameStreamReceiver>> receivers;
    std::vector<std::vector<Wire>> wire;
    std::vector<FrameStreamPublisher::FrameReport> reports;
    std::vector<std::vector<uint8_t>> frames;
  };
  Side pooled(options, &pool), serial(options, nullptr);
  for (Side* side : {&pooled, &serial}) {
    for (const QualityClass quality : classes) {
      auto [pub_end, tap] = net::make_channel_pair();
      side->publisher.subscribe(pub_end, quality);
      side->taps.push_back(tap);
      auto [forward, receive_end] = net::make_channel_pair();
      side->forwards.push_back(forward);
      side->receivers.push_back(
          std::make_unique<FrameStreamReceiver>(receive_end, quality, options));
    }
    side->wire.resize(classes.size());
  }

  // FrameBegin carries the tracer clock's publish time: a frozen clock
  // makes both publishers stamp the same one.
  util::SimClock clock;
  obs::Tracer::global().set_clock(&clock);
  for (int step = 0; step < 10; ++step) {
    const Image frame = orbit_frame(96, 64, step);
    for (Side* side : {&pooled, &serial}) {
      side->reports.push_back(side->publisher.publish_frame(frame));
      for (size_t c = 0; c < classes.size(); ++c) {
        while (auto msg = side->taps[c]->try_receive()) {
          side->wire[c].push_back({msg->type, msg->payload});
          ASSERT_TRUE(side->forwards[c]->send(*std::move(msg)).ok());
        }
        auto got = side->receivers[c]->next_frame(clock, 1.0);
        ASSERT_TRUE(got.ok()) << "step " << step << ": " << got.error();
        side->frames.push_back(got.value().rgb);
      }
    }
  }
  obs::Tracer::global().set_clock(nullptr);

  for (size_t c = 0; c < classes.size(); ++c)
    EXPECT_TRUE(pooled.wire[c] == serial.wire[c]) << compress::quality_name(classes[c]);
  EXPECT_EQ(pooled.frames, serial.frames);
  ASSERT_EQ(pooled.reports.size(), serial.reports.size());
  for (size_t i = 0; i < pooled.reports.size(); ++i) {
    const auto& a = pooled.reports[i];
    const auto& b = serial.reports[i];
    EXPECT_EQ(std::tie(a.frame_id, a.tiles_total, a.tiles_ref, a.tiles_data, a.ref_bytes,
                       a.data_bytes, a.classes_published, a.trace_id),
              std::tie(b.frame_id, b.tiles_total, b.tiles_ref, b.tiles_data, b.ref_bytes,
                       b.data_bytes, b.classes_published, b.trace_id))
        << "frame " << i;
  }
  const compress::EncodeMemo::Stats& pm = pooled.publisher.memo().stats();
  const compress::EncodeMemo::Stats& sm = serial.publisher.memo().stats();
  EXPECT_EQ(std::tie(pm.hits, pm.misses, pm.evictions, pm.bytes_saved),
            std::tie(sm.hits, sm.misses, sm.evictions, sm.bytes_saved));
  // The schedule exercised what it is meant to: repeats within a frame,
  // and a memo too small for one frame.
  EXPECT_GT(sm.hits, 0u);
  EXPECT_GT(sm.evictions, 0u);
  EXPECT_GT(sm.bytes_saved, 0u);
}

// --- relays ------------------------------------------------------------------

TEST(FanoutRelay, ForwardsStreamAndServesMissesFromCache) {
  util::SimClock clock;
  FrameStreamOptions options;
  options.tile_size = 32;
  options.tile_store_capacity = 1;  // force subscriber misses
  FrameStreamPublisher publisher(options);

  // publisher → relay → subscriber
  auto [relay_srv, relay_cli] = net::make_channel_pair();
  publisher.subscribe(relay_srv, QualityClass::Workstation);
  net::FanoutRelay relay(relay_cli);
  RelayTileCache cache(64);
  cache.attach(relay);
  auto [sub_srv, sub_cli] = net::make_channel_pair();
  relay.hub().subscribe(sub_srv);
  FrameStreamReceiver receiver(sub_cli, QualityClass::Workstation, options);
  const auto pump = [&] {
    (void)publisher.pump();
    (void)relay.pump();
  };

  Image frame = test_image(128, 64, 5);
  for (int step = 0; step < 4; ++step) {
    frame.set_pixel(step, 0, 255, 255, 255);
    (void)publisher.publish_frame(frame);
    auto got = receiver.next_frame(clock, 1.0, pump);
    ASSERT_TRUE(got.ok()) << got.error();
    EXPECT_EQ(got.value().rgb, frame.rgb);
  }
  EXPECT_GT(relay.stats().forwarded_down, 0u);
  EXPECT_GT(receiver.stats().miss_requests, 0u);
  // The relay's cache absorbed the misses — the publisher never saw them.
  EXPECT_GT(cache.stats().served, 0u);
  EXPECT_EQ(publisher.stats().miss_replies, 0u);
}

// The relay tap reads a TileData's hash and codec in place. Per class, a
// miss for a forwarded tile is answered with the byte-identical message,
// and a TileData truncated in its own framing or inside its encoded image
// is forwarded but never cached.
TEST(FanoutRelay, CacheReplaysForwardedTileDataAndSkipsTruncated) {
  for (const QualityClass quality : {QualityClass::Workstation, QualityClass::Pda}) {
    SCOPED_TRACE(compress::quality_name(quality));
    auto [up_srv, up_cli] = net::make_channel_pair();
    net::FanoutRelay relay(up_cli);
    RelayTileCache cache(8);
    cache.attach(relay);
    auto [sub_srv, sub_cli] = net::make_channel_pair();
    relay.hub().subscribe(sub_srv);

    const Image pixels = test_image(32, 32, 6);
    const Tile tile{32, 0, 32, 32};
    const uint64_t hash = render::hash_image(pixels);
    const std::vector<uint8_t> image = compress::make_codec(compress::codec_for_quality(quality))
                                           ->encode(pixels, nullptr)
                                           .serialize();
    const net::Message good = encode(TileDataMsg{9, 1, tile, hash, image});
    net::Message cut_framing = encode(TileDataMsg{9, 1, tile, hash + 1, image});
    cut_framing.payload.pop_back();
    const net::Message cut_image =
        encode(TileDataMsg{9, 1, tile, hash + 2, {image.begin(), image.end() - 1}});
    for (const net::Message& msg : {good, cut_framing, cut_image}) ASSERT_TRUE(up_srv->send(msg).ok());
    (void)relay.pump();
    EXPECT_EQ(relay.stats().forwarded_down, 3u);
    EXPECT_EQ(cache.stats().cached, 1u);
    EXPECT_EQ(cache.size(), 1u);
    while (sub_cli->try_receive()) {
    }

    for (const uint64_t asked : {hash, hash + 1, hash + 2})
      ASSERT_TRUE(sub_cli->send(encode(TileMissMsg{asked, 9, 1, quality})).ok());
    (void)relay.pump();
    auto reply = sub_cli->try_receive();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, kMsgTileData);
    EXPECT_EQ(reply->payload, good.payload);
    EXPECT_FALSE(sub_cli->try_receive().has_value());
    EXPECT_EQ(cache.stats().served, 1u);
    EXPECT_EQ(cache.stats().forwarded, 2u);
  }
}

TEST(FanoutRelay, RelayDeathMidFrameRecoversWithNoStaleTiles) {
  util::SimClock clock;
  FrameStreamOptions options;
  options.tile_size = 32;
  FrameStreamPublisher publisher(options);

  auto [relay_srv, relay_cli] = net::make_channel_pair();
  const auto relay_sub_id = publisher.subscribe(relay_srv, QualityClass::Workstation);
  net::FanoutRelay relay(relay_cli);
  auto [sub_srv, sub_cli] = net::make_channel_pair();
  relay.hub().subscribe(sub_srv);
  auto receiver = std::make_unique<FrameStreamReceiver>(sub_cli, QualityClass::Workstation,
                                                        options);
  const auto pump = [&] {
    (void)publisher.pump();
    if (relay.upstream_open()) (void)relay.pump();
  };

  const Image frame1 = test_image(96, 96, 6);
  (void)publisher.publish_frame(frame1);
  ASSERT_TRUE(receiver->next_frame(clock, 1.0, pump).ok());

  // Publish the next frame but kill the relay after it forwarded only
  // part of it: pump the publisher side, move two messages, then die.
  Image frame2 = frame1;
  for (int x = 0; x < 96; ++x) frame2.set_pixel(x, 40, 0, 255, 0);
  (void)publisher.publish_frame(frame2);
  (void)relay.pump();        // everything reaches the relay's hub...
  relay.close();             // ...but the relay dies now
  sub_cli->close();          // and its downstream link drops with it
  publisher.unsubscribe(QualityClass::Workstation, relay_sub_id);

  // The subscriber reconnects straight to the publisher (re-dispatch).
  // The forced keyframe means no tile of the torn frame is trusted — the
  // recovered frame is byte-identical to the source, no stale tiles.
  auto [direct_srv, direct_cli] = net::make_channel_pair();
  publisher.subscribe(direct_srv, QualityClass::Workstation);
  receiver = std::make_unique<FrameStreamReceiver>(direct_cli, QualityClass::Workstation,
                                                   options);
  const auto report = publisher.publish_frame(frame2);
  EXPECT_EQ(report.tiles_data, report.tiles_total);  // keyframe re-dispatch
  auto got = receiver->next_frame(clock, 1.0, [&] { (void)publisher.pump(); });
  ASSERT_TRUE(got.ok()) << got.error();
  EXPECT_EQ(got.value().rgb, frame2.rgb);
}

// --- end to end through the render service -----------------------------------

TEST(FanoutE2E, StreamedFramesMatchPullsAndShowInStatus) {
  util::SimClock clock;
  RaveGrid grid(clock);
  DataService& data = grid.add_data_service("datahost");
  scene::SceneTree tree;
  tree.add_child(scene::kRootNode, "ball", mesh::make_uv_sphere(0.5f, 16, 12));
  ASSERT_TRUE(data.create_session("demo", std::move(tree)).ok());
  grid.add_render_service("laptop");
  ASSERT_TRUE(grid.join("laptop", "datahost", "demo").ok());
  RenderService& render = *grid.render_service("laptop");

  ThinClient client(clock, grid.fabric());
  ASSERT_TRUE(client.connect(render.client_access_point(), "demo").ok());
  ASSERT_TRUE(client.subscribe_stream(QualityClass::Workstation).ok());
  grid.pump_until_idle();

  scene::Camera cam;
  cam.eye = {0, 0, 3};
  const auto pump = [&] { grid.pump_all(); };
  for (int i = 0; i < 3; ++i) {
    auto report = render.publish_stream_frame("demo", cam, 64, 64);
    ASSERT_TRUE(report.ok()) << report.error();
    auto streamed = client.next_stream_frame(1.0, pump);
    ASSERT_TRUE(streamed.ok()) << streamed.error();
    // Lossless class: the streamed frame equals the frame a pull client
    // would have rendered for the same camera.
    auto direct = render.render_distributed("demo", cam, 64, 64);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(streamed.value().rgb, direct.value().to_image().rgb);
  }
  // Static camera → later frames were all refs.
  const FrameStreamPublisher* publisher = render.stream_publisher("demo");
  ASSERT_NE(publisher, nullptr);
  EXPECT_GT(publisher->stats().tiles_ref, 0u);

  // The cache shows up in the operator dashboards.
  const RenderService::StreamTotals totals = render.stream_totals();
  EXPECT_GT(totals.tiles_ref, 0u);
  EXPECT_EQ(totals.subscribers, 1u);
  const std::string dashboard = grid.status_dashboard();
  EXPECT_NE(dashboard.find("fanout cache"), std::string::npos) << dashboard;
}

TEST(FanoutE2E, PublishSkipsRenderWithNoSubscribers) {
  util::SimClock clock;
  RaveGrid grid(clock);
  DataService& data = grid.add_data_service("datahost");
  scene::SceneTree tree;
  tree.add_child(scene::kRootNode, "ball", mesh::make_uv_sphere(0.5f, 8, 6));
  ASSERT_TRUE(data.create_session("demo", std::move(tree)).ok());
  grid.add_render_service("laptop");
  ASSERT_TRUE(grid.join("laptop", "datahost", "demo").ok());
  RenderService& render = *grid.render_service("laptop");
  scene::Camera cam;
  auto report = render.publish_stream_frame("demo", cam, 64, 64);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().tiles_total, 0u);
  EXPECT_EQ(render.stats().frames_rendered, 0u);  // no render happened
  EXPECT_FALSE(render.publish_stream_frame("nope", cam, 64, 64).ok());
}

// --- pulls: a FrameRequest is answered with one stream frame -------------------

// A pulled frame equals the reference render (through the class codec for
// the lossy class), and pulling the unchanged view again ships only tile
// refs. Sizes that are not a multiple of the 64 px tile cover ragged edges
// and single-tile frames; Raw is Table 2's uncompressed 24 bpp frame.
using PullSize = std::pair<int, int>;  // width, height
class PullIdentity : public testing::TestWithParam<std::tuple<PullSize, QualityClass>> {};

TEST_P(PullIdentity, PulledFrameMatchesReferenceAndRepeatsAsRefs) {
  const auto [size, quality] = GetParam();
  const auto [width, height] = size;
  util::SimClock clock;
  RaveGrid grid(clock);
  DataService& data = grid.add_data_service("datahost");
  scene::SceneTree tree;
  tree.add_child(scene::kRootNode, "ball", mesh::make_uv_sphere(0.6f, 16, 12));
  // Two coloured balls in front add edges, so even the smallest frame
  // does not collapse to a few RLE runs (traced messages carry 16 more
  // header bytes each, which a near-empty first frame could not absorb).
  const std::pair<util::Vec3, util::Vec3> small_balls[] = {  // colour, centre
      {{1, 0.2f, 0.1f}, {0.15f, 0.05f, 0.6f}},
      {{0.1f, 0.3f, 1}, {-0.2f, -0.1f, 0.65f}}};
  for (const auto& [color, at] : small_balls) {
    scene::MeshData small = mesh::make_uv_sphere(0.3f, 12, 9);
    small.base_color = color;
    tree.add_child(scene::kRootNode, "small", small, util::Mat4::translate(at));
  }
  ASSERT_TRUE(data.create_session("demo", std::move(tree)).ok());
  grid.add_render_service("laptop");
  ASSERT_TRUE(grid.join("laptop", "datahost", "demo").ok());
  RenderService& render = *grid.render_service("laptop");

  ThinClient client(clock, grid.fabric());
  ASSERT_TRUE(client.connect(render.client_access_point(), "demo").ok());
  client.set_quality(quality);
  // Close enough that the shaded balls fill most of every frame size.
  scene::Camera cam;
  cam.eye = {0, 0, 1.5f};
  const auto pump = [&] { grid.pump_all(); };

  auto first = client.request_frame(cam, width, height, 5.0, pump);
  ASSERT_TRUE(first.ok()) << first.error();
  const Image reference =
      render::render_tree(*render.replica("demo"), cam, width, height).to_image();
  const Image expected = quality == QualityClass::Pda
                             ? full_delivery_reference(reference, quality, 64)
                             : reference;
  EXPECT_EQ(first.value().rgb, expected.rgb);
  EXPECT_EQ(client.last_stats().codec, compress::codec_for_quality(quality));
  const uint64_t first_bytes = client.last_stats().image_bytes;

  const FrameStreamReceiver* receiver = client.stream_receiver();
  ASSERT_NE(receiver, nullptr);
  const auto before = receiver->stats();
  auto second = client.request_frame(cam, width, height, 5.0, pump);
  ASSERT_TRUE(second.ok()) << second.error();
  // Identical camera, static scene: the second frame is refs only.
  const size_t tiles = render::tile_grid(width, height, 64).size();
  EXPECT_EQ(receiver->stats().data_tiles, before.data_tiles);
  EXPECT_EQ(receiver->stats().refs_resolved - before.refs_resolved, tiles);
  EXPECT_LT(client.last_stats().image_bytes, first_bytes / 4);
  EXPECT_EQ(second.value().rgb, first.value().rgb);
}

std::string pull_case_name(const testing::TestParamInfo<PullIdentity::ParamType>& info) {
  const PullSize size = std::get<0>(info.param);
  return std::to_string(size.first) + "x" + std::to_string(size.second) + "_" +
         compress::quality_name(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndClasses, PullIdentity,
    testing::Combine(testing::Values(PullSize(200, 200), PullSize(64, 48), PullSize(33, 17)),
                     testing::Values(QualityClass::Workstation, QualityClass::Pda,
                                     QualityClass::Raw)),
    pull_case_name);

// A TileMiss after a pull is answered from that client's last pulled
// frame: with a one-tile store every ref of the repeated pull misses.
TEST(FanoutPull, MissesResolveAgainstTheClientsLastPull) {
  util::SimClock clock;
  FrameStreamOptions options;
  options.tile_size = 32;
  options.tile_store_capacity = 1;
  FrameStreamPublisher publisher(options);
  auto [server_end, client_end] = net::make_channel_pair();
  FrameStreamReceiver receiver(client_end, QualityClass::Workstation, options);
  FrameStreamPublisher::FramePtr pulled;
  const auto pump = [&, server = server_end] {
    while (auto msg = server->try_receive()) {
      const auto miss = decode_tile_miss(*msg);
      ASSERT_TRUE(miss.ok());
      if (auto reply = publisher.make_miss_reply(miss.value(), pulled)) {
        ASSERT_TRUE(server->send(*std::move(reply)).ok());
      }
    }
  };
  const Image frame = test_image(96, 64, 3);
  FrameRequest request;
  request.request_id = 7;
  const auto first = publisher.answer_pull(frame, request, 0.25, *server_end, pulled);
  EXPECT_EQ(first.tiles_data, first.tiles_total);
  ASSERT_TRUE(receiver.next_frame(clock, 1.0, pump).ok());

  request.request_id = 8;
  const auto second = publisher.answer_pull(frame, request, 0.5, *server_end, pulled);
  EXPECT_EQ(second.tiles_ref, second.tiles_total);
  auto got = receiver.next_frame(clock, 1.0, pump);
  ASSERT_TRUE(got.ok()) << got.error();
  EXPECT_EQ(got.value().rgb, frame.rgb);
  EXPECT_GT(receiver.stats().miss_requests, 0u);
  EXPECT_EQ(publisher.stats().miss_replies, receiver.stats().miss_requests);
  EXPECT_EQ(receiver.last_header().frame_id, 8u);
  ASSERT_TRUE(receiver.last_header().render_seconds.has_value());
  EXPECT_DOUBLE_EQ(*receiver.last_header().render_seconds, 0.5);
}

// A reply to an earlier request that arrives late is not the answer to
// the current one: request_frame drops it and waits for its own frame.
TEST(FanoutPull, LateReplyToAnEarlierRequestIsDropped) {
  util::SimClock clock;
  InProcFabric fabric(clock);
  net::ChannelPtr server;
  auto access = fabric.listen("svc", [&](net::ChannelPtr ch) { server = std::move(ch); });
  ASSERT_TRUE(access.ok()) << access.error();
  ThinClient client(clock, fabric);
  ASSERT_TRUE(client.connect(access.value(), "demo").ok());

  FrameStreamPublisher publisher;
  FrameStreamPublisher::FramePtr stale_state, pulled;
  const Image stale = test_image(40, 30, 1);
  const Image wanted = test_image(40, 30, 2);
  // The service answers the earlier request only now, right before the
  // current one.
  const auto pump = [&] {
    if (server == nullptr) return;
    std::vector<FrameRequest> requests;
    while (auto msg = server->try_receive())
      if (auto request = decode_frame_request(*msg); request.ok())
        requests.push_back(request.value());
    if (requests.size() != 2) return;
    (void)publisher.answer_pull(stale, requests[0], 9.0, *server, stale_state);
    (void)publisher.answer_pull(wanted, requests[1], 0.125, *server, pulled);
  };
  (void)client.request_frame(scene::Camera{}, 40, 30, 0.0);  // request 1: no answer
  auto got = client.request_frame(scene::Camera{}, 40, 30, 5.0, pump);
  ASSERT_TRUE(got.ok()) << got.error();
  EXPECT_EQ(got.value().rgb, wanted.rgb);
  EXPECT_DOUBLE_EQ(client.last_stats().render_seconds, 0.125);
}

// The thin client's modelled 2004 unpack is reported in client_seconds
// and charged to a virtual clock, but a real clock is never slept: here
// the profile's rate models 2 s for a 40x30 frame.
TEST(FanoutPull, ModelledUnpackAdvancesVirtualTimeOnly) {
  util::RealClock real_clock;
  util::SimClock virtual_clock;
  for (util::Clock* clock : {static_cast<util::Clock*>(&real_clock),
                             static_cast<util::Clock*>(&virtual_clock)}) {
    InProcFabric fabric(*clock);
    net::ChannelPtr server;
    auto access = fabric.listen("svc", [&](net::ChannelPtr ch) { server = std::move(ch); });
    ASSERT_TRUE(access.ok()) << access.error();
    sim::MachineProfile profile = sim::zaurus_pda();
    profile.pixel_unpack_rate = 40.0 * 30.0 / 2.0;
    ThinClient client(*clock, fabric, profile);
    ASSERT_TRUE(client.connect(access.value(), "demo").ok());
    FrameStreamPublisher publisher;
    FrameStreamPublisher::FramePtr pulled;
    const Image frame = test_image(40, 30, 4);
    const auto pump = [&] {
      if (server == nullptr) return;
      while (auto msg = server->try_receive())
        if (auto request = decode_frame_request(*msg); request.ok())
          (void)publisher.answer_pull(frame, request.value(), 0.0, *server, pulled);
    };
    const util::RealClock wall;  // starts at 0
    auto got = client.request_frame(scene::Camera{}, 40, 30, 5.0, pump);
    const double elapsed = wall.now();
    ASSERT_TRUE(got.ok()) << got.error();
    EXPECT_DOUBLE_EQ(client.last_stats().client_seconds, 2.0);
    EXPECT_LT(elapsed, 1.0);  // no real sleep on either clock
    if (clock == &virtual_clock) {
      EXPECT_GE(client.last_stats().total_latency, 2.0);
    } else {
      EXPECT_LT(client.last_stats().total_latency, 1.0);
    }
  }
}

// Satellite guard: a stream subscription's channel carries pushed frames,
// and a pull would silently consume them — request_frame refuses instead.
TEST(FanoutPull, RequestAfterSubscribeStreamIsAnError) {
  util::SimClock clock;
  RaveGrid grid(clock);
  DataService& data = grid.add_data_service("datahost");
  scene::SceneTree tree;
  tree.add_child(scene::kRootNode, "ball", mesh::make_uv_sphere(0.5f, 8, 6));
  ASSERT_TRUE(data.create_session("demo", std::move(tree)).ok());
  grid.add_render_service("laptop");
  ASSERT_TRUE(grid.join("laptop", "datahost", "demo").ok());
  ThinClient client(clock, grid.fabric());
  ASSERT_TRUE(client.connect(grid.render_service("laptop")->client_access_point(), "demo").ok());
  ASSERT_TRUE(client.subscribe_stream(QualityClass::Workstation).ok());
  auto pulled = client.request_frame(scene::Camera{}, 32, 32, 1.0, [&] { grid.pump_all(); });
  ASSERT_FALSE(pulled.ok());
  EXPECT_NE(pulled.error().find("next_stream_frame"), std::string::npos) << pulled.error();
}

// --- per-hop delivery tracing over real TCP ----------------------------------

std::string format_hops(const std::set<std::string>& hops) {
  std::string out;
  for (const auto& hop : hops) out += hop + "\n";
  return out;
}

// One accepted TCP connection through the process reactor: {server end
// (accepted, event-loop driven), client end (dialed)}. The listener is
// torn down once the connection lands.
std::pair<net::ChannelPtr, net::ChannelPtr> tcp_pair() {
  std::mutex mu;
  std::condition_variable cv;
  net::ChannelPtr server;
  auto listener = net::Reactor::global().listen(0, [&](net::ChannelPtr accepted) {
    std::lock_guard<std::mutex> lock(mu);
    server = std::move(accepted);
    cv.notify_all();
  });
  EXPECT_TRUE(listener.ok()) << listener.error();
  auto dialed = net::tcp_connect("127.0.0.1", listener.value()->port());
  EXPECT_TRUE(dialed.ok()) << dialed.error();
  {
    std::unique_lock<std::mutex> lock(mu);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(5), [&] { return server != nullptr; }));
  }
  return {server, std::move(dialed).take()};
}

// The satellite regression: relays used to re-publish upstream messages
// with fresh (zero) trace fields, so a frame's trace died at the first
// relay hop. Push one frame through publisher → relay → relay →
// subscriber over real TCP sockets and require every hop — both relays,
// the reactor write queues, and the subscriber's decode and assemble — to
// land on the single trace the publisher rooted.
TEST(FanoutRelay, TraceContextSurvivesTwoRelayHopsOverTcp) {
  obs::Tracer::global().reset();
  obs::Tracer::global().set_enabled(true);

  FrameStreamOptions options;
  options.tile_size = 32;
  FrameStreamPublisher publisher(options);

  auto [pub_down, relay1_up] = tcp_pair();
  publisher.subscribe(pub_down, QualityClass::Workstation);
  net::FanoutRelay relay1(relay1_up);
  relay1.set_host("edge-1");
  auto [relay1_down, relay2_up] = tcp_pair();
  relay1.hub().subscribe(relay1_down);
  net::FanoutRelay relay2(relay2_up);
  relay2.set_host("edge-2");
  auto [relay2_down, sub_end] = tcp_pair();
  relay2.hub().subscribe(relay2_down);
  FrameStreamReceiver receiver(sub_end, QualityClass::Workstation, options);

  util::RealClock clock;
  const auto pump = [&] {
    (void)publisher.pump();
    (void)relay1.pump();
    (void)relay2.pump();
  };
  const Image frame = test_image(96, 64, 7);
  const auto report = publisher.publish_frame(frame);
  EXPECT_NE(report.trace_id, 0u);
  auto got = receiver.next_frame(clock, 10.0, pump);
  ASSERT_TRUE(got.ok()) << got.error();
  EXPECT_EQ(got.value().rgb, frame.rgb);
  obs::Tracer::global().set_enabled(false);

  const auto spans = obs::Tracer::global().spans();
  const auto ids = obs::trace_ids(spans);
  ASSERT_EQ(ids.size(), 1u);  // one frame, one timeline
  EXPECT_EQ(ids[0], report.trace_id);

  std::set<std::string> hops;
  uint64_t root_span = 0;
  std::set<uint64_t> relay1_spans, relay2_spans;
  for (const auto& s : spans) {
    hops.insert(s.name + "@" + s.host);
    if (s.name == "publish_frame") root_span = s.span_id;
    if (s.name == "relay" && s.host == "edge-1") relay1_spans.insert(s.span_id);
    if (s.name == "relay" && s.host == "edge-2") relay2_spans.insert(s.span_id);
  }
  EXPECT_TRUE(hops.count("relay@edge-1")) << format_hops(hops);
  EXPECT_TRUE(hops.count("relay@edge-2")) << format_hops(hops);
  EXPECT_TRUE(hops.count("queue_wait@reactor")) << format_hops(hops);
  EXPECT_TRUE(hops.count("decode@subscriber")) << format_hops(hops);
  EXPECT_TRUE(hops.count("assemble@subscriber")) << format_hops(hops);

  // Parentage follows the topology: first-hop relay spans hang off the
  // publisher's root, second-hop relay spans off some first-hop span.
  ASSERT_NE(root_span, 0u);
  ASSERT_FALSE(relay1_spans.empty());
  ASSERT_FALSE(relay2_spans.empty());
  for (const auto& s : spans) {
    if (s.name == "relay" && s.host == "edge-1") EXPECT_EQ(s.parent_span_id, root_span);
    if (s.name == "relay" && s.host == "edge-2")
      EXPECT_TRUE(relay1_spans.count(s.parent_span_id)) << s.parent_span_id;
    if (s.name == "decode" || s.name == "assemble")
      EXPECT_TRUE(relay2_spans.count(s.parent_span_id)) << s.name;
  }

  // And the stitched timeline answers "where did the latency go".
  const auto path = obs::critical_path(spans, report.trace_id);
  EXPECT_FALSE(path.dominant.empty());
  EXPECT_GT(path.total_seconds, 0.0);
}

}  // namespace
}  // namespace rave::core
