// Property-based and fuzz tests across module boundaries: deserializers
// must fail gracefully on corrupted input, replicas fed the same update
// stream must converge, tile splits must partition any frame, codecs must
// round-trip arbitrary images, and random structural edits must preserve
// scene-tree invariants. Deterministic PRNG — failures reproduce.
#include <gtest/gtest.h>

#include <random>

#include "compress/codec.hpp"
#include "core/protocol.hpp"
#include "render/compositor.hpp"
#include "mesh/primitives.hpp"
#include "render/framebuffer.hpp"
#include "scene/serialize.hpp"
#include "scene/tree.hpp"
#include "scene/update.hpp"
#include "services/soap.hpp"
#include "services/xml.hpp"

namespace rave {
namespace {

using scene::kRootNode;
using scene::NodeId;
using scene::SceneTree;

// --- fuzzing deserializers ----------------------------------------------------

std::vector<uint8_t> mutate(std::vector<uint8_t> bytes, std::mt19937& rng) {
  if (bytes.empty()) return bytes;
  std::uniform_int_distribution<size_t> pos(0, bytes.size() - 1);
  std::uniform_int_distribution<int> val(0, 255);
  const int mutations = 1 + static_cast<int>(rng() % 8);
  for (int i = 0; i < mutations; ++i) bytes[pos(rng)] = static_cast<uint8_t>(val(rng));
  return bytes;
}

TEST(Fuzz, TreeDeserializerNeverCrashes) {
  SceneTree tree;
  tree.add_child(kRootNode, "mesh", mesh::make_uv_sphere(0.5f, 8, 6));
  scene::AvatarData avatar;
  avatar.user_name = "fuzz";
  tree.add_child(kRootNode, "avatar", avatar);
  const std::vector<uint8_t> clean = scene::serialize_tree(tree);

  std::mt19937 rng(1234);
  int parsed_ok = 0;
  for (int round = 0; round < 300; ++round) {
    const auto corrupted = mutate(clean, rng);
    auto result = scene::deserialize_tree(corrupted);  // must not crash/UB
    if (result.ok()) {
      ++parsed_ok;
      // Whatever parsed must still be a structurally valid tree.
      const SceneTree& t = result.value();
      for (NodeId id : t.ids_depth_first()) {
        const scene::SceneNode* node = t.find(id);
        ASSERT_NE(node, nullptr);
        if (id != kRootNode) {
          ASSERT_TRUE(t.contains(node->parent));
        }
      }
    }
  }
  // Some mutations only touch float payloads and still parse — fine.
  SUCCEED() << parsed_ok << " of 300 mutants still parsed";
}

TEST(Fuzz, TruncatedTreeAlwaysRejectedGracefully) {
  SceneTree tree;
  tree.add_child(kRootNode, "mesh", mesh::make_uv_sphere(0.5f, 8, 6));
  const std::vector<uint8_t> clean = scene::serialize_tree(tree);
  for (size_t len = 0; len < clean.size(); len += 17) {
    std::vector<uint8_t> cut(clean.begin(), clean.begin() + static_cast<ptrdiff_t>(len));
    (void)scene::deserialize_tree(cut);  // graceful error or partial parse, no crash
  }
  SUCCEED();
}

TEST(Fuzz, ProtocolDecodersRejectRandomPayloads) {
  std::mt19937 rng(99);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int round = 0; round < 200; ++round) {
    net::Message msg;
    msg.type = static_cast<uint16_t>(0x0100 + rng() % 0x40);
    msg.payload.resize(rng() % 128);
    for (auto& b : msg.payload) b = static_cast<uint8_t>(byte(rng));
    // Every decoder must return an error or a value — never crash.
    (void)core::decode_subscribe(msg);
    (void)core::decode_snapshot(msg);
    (void)core::decode_update(msg);
    (void)core::decode_frame_request(msg);
    (void)core::decode_stream_subscribe(msg);
    (void)core::decode_frame_begin(msg);
    (void)core::decode_tile_ref(msg);
    if (const auto data = core::view_tile_data(msg); data.ok())
      (void)compress::EncodedImage::read(data.value().encoded);
    (void)core::decode_frame_end(msg);
    (void)core::decode_tile_miss(msg);
    (void)core::decode_tile_assign(msg);
    (void)core::decode_tile_result(msg);
    (void)core::decode_load_report(msg);
    (void)core::decode_interest_set(msg);
  }
  SUCCEED();
}

TEST(Fuzz, XmlParserSurvivesMangledDocuments) {
  const std::string base =
      "<soap:Envelope xmlns:soap=\"x\"><soap:Body><rave:Call service=\"s\" method=\"m\" "
      "id=\"1\"><arg xsi:type=\"xsd:long\">42</arg></rave:Call></soap:Body></soap:Envelope>";
  std::mt19937 rng(7);
  for (int round = 0; round < 300; ++round) {
    std::string mangled = base;
    const int cuts = 1 + static_cast<int>(rng() % 5);
    for (int c = 0; c < cuts; ++c) {
      const size_t pos = rng() % mangled.size();
      mangled[pos] = static_cast<char>(32 + rng() % 90);
    }
    (void)services::parse_xml(mangled);
    (void)services::decode_call(mangled);
  }
  SUCCEED();
}

// --- replica convergence ---------------------------------------------------------

scene::SceneUpdate random_update(SceneTree& authority, std::mt19937& rng) {
  const auto ids = authority.ids_depth_first();
  std::uniform_int_distribution<size_t> pick(0, ids.size() - 1);
  switch (rng() % 4) {
    case 0: {  // add
      scene::SceneNode node;
      node.id = authority.allocate_id();
      node.name = "n" + std::to_string(node.id);
      if (rng() % 2 == 0) node.payload = mesh::make_cone(0.1f, 0.2f, 6);
      return scene::SceneUpdate::add_node(ids[pick(rng)], std::move(node));
    }
    case 1:  // remove (may target root → refused identically everywhere)
      return scene::SceneUpdate::remove_node(ids[pick(rng)]);
    case 2:
      return scene::SceneUpdate::set_transform(
          ids[pick(rng)],
          util::Mat4::translate({static_cast<float>(rng() % 10), 0, 0}));
    default:
      return scene::SceneUpdate::reparent(ids[pick(rng)], ids[pick(rng)]);
  }
}

TEST(Property, ReplicasConvergeUnderRandomUpdateStream) {
  // The server-ordered update model: any stream of updates applied in the
  // same order to two replicas (through a serialize/deserialize hop, as on
  // the wire) yields identical trees.
  SceneTree authority;
  SceneTree replica;
  std::mt19937 rng(2026);
  int applied = 0;
  for (int i = 0; i < 400; ++i) {
    scene::SceneUpdate update = random_update(authority, rng);
    const util::Status on_authority = update.apply(authority);
    // Wire hop.
    util::ByteWriter w;
    scene::write_update(w, update);
    util::ByteReader r(w.data());
    auto decoded = scene::read_update(r);
    ASSERT_TRUE(decoded.ok());
    const util::Status on_replica = decoded.value().apply(replica);
    ASSERT_EQ(on_authority.ok(), on_replica.ok()) << "divergent acceptance at step " << i;
    if (on_authority.ok()) ++applied;
    replica.bump_next_id(authority.peek_next_id() - 1);
  }
  ASSERT_GT(applied, 100);
  // Structural equality via canonical serialization.
  EXPECT_EQ(scene::serialize_tree(authority), scene::serialize_tree(replica));
}

TEST(Property, TreeInvariantsSurviveRandomOps) {
  SceneTree tree;
  std::mt19937 rng(5);
  for (int i = 0; i < 500; ++i) (void)random_update(tree, rng).apply(tree);
  // Invariants: every node's parent exists and lists it exactly once; the
  // root is present; depth-first enumeration reaches every node.
  const auto ids = tree.ids_depth_first();
  EXPECT_EQ(ids.size(), tree.node_count());
  for (NodeId id : ids) {
    const scene::SceneNode* node = tree.find(id);
    ASSERT_NE(node, nullptr);
    if (id == kRootNode) continue;
    const scene::SceneNode* parent = tree.find(node->parent);
    ASSERT_NE(parent, nullptr);
    EXPECT_EQ(std::count(parent->children.begin(), parent->children.end(), id), 1);
  }
}

// --- tiles ------------------------------------------------------------------------

TEST(Property, TileSplitPartitionsAnyFrame) {
  std::mt19937 rng(11);
  for (int round = 0; round < 100; ++round) {
    const int w = 1 + static_cast<int>(rng() % 1920);
    const int h = 1 + static_cast<int>(rng() % 1080);
    const int count = 1 + static_cast<int>(rng() % 12);
    const auto tiles = render::split_tiles(w, h, count);
    ASSERT_EQ(static_cast<int>(tiles.size()), count);
    // Exact cover: area sums and no tile escapes the frame.
    uint64_t area = 0;
    for (const auto& t : tiles) {
      ASSERT_GE(t.x, 0);
      ASSERT_GE(t.y, 0);
      ASSERT_LE(t.right(), w);
      ASSERT_LE(t.bottom(), h);
      area += t.pixel_count();
    }
    ASSERT_EQ(area, static_cast<uint64_t>(w) * static_cast<uint64_t>(h))
        << w << "x" << h << " in " << count;
    // Pairwise disjoint.
    for (size_t a = 0; a < tiles.size(); ++a)
      for (size_t b = a + 1; b < tiles.size(); ++b) {
        const bool overlap = tiles[a].x < tiles[b].right() && tiles[b].x < tiles[a].right() &&
                             tiles[a].y < tiles[b].bottom() && tiles[b].y < tiles[a].bottom();
        ASSERT_FALSE(overlap && tiles[a].pixel_count() && tiles[b].pixel_count());
      }
  }
}

// --- codecs ------------------------------------------------------------------------

TEST(Property, LosslessCodecsRoundTripRandomImages) {
  std::mt19937 rng(21);
  for (int round = 0; round < 40; ++round) {
    const int w = 1 + static_cast<int>(rng() % 96);
    const int h = 1 + static_cast<int>(rng() % 96);
    render::Image img(w, h);
    // Mix of noise and runs to stress both RLE branches.
    uint8_t current = 0;
    for (auto& b : img.rgb) {
      if (rng() % 7 == 0) current = static_cast<uint8_t>(rng());
      b = current;
    }
    for (auto kind : {compress::CodecKind::Raw, compress::CodecKind::Rle,
                      compress::CodecKind::Delta}) {
      auto codec = compress::make_codec(kind);
      auto decoded = codec->decode(codec->encode(img, nullptr), nullptr);
      ASSERT_TRUE(decoded.ok()) << compress::codec_name(kind);
      ASSERT_EQ(decoded.value().rgb, img.rgb)
          << compress::codec_name(kind) << " " << w << "x" << h;
    }
  }
}

TEST(Property, DeltaChainsReconstructExactly) {
  // Arbitrary-length delta chains (keyframe + N deltas) decode exactly.
  std::mt19937 rng(31);
  auto codec = compress::make_codec(compress::CodecKind::Delta);
  render::Image prev_encoded(32, 32), prev_decoded(32, 32);
  bool have_prev = false;
  render::Image frame(32, 32);
  for (int step = 0; step < 20; ++step) {
    // Small random change.
    for (int i = 0; i < 10; ++i)
      frame.rgb[rng() % frame.rgb.size()] = static_cast<uint8_t>(rng());
    const auto encoded = codec->encode(frame, have_prev ? &prev_encoded : nullptr);
    auto decoded = codec->decode(encoded, have_prev ? &prev_decoded : nullptr);
    ASSERT_TRUE(decoded.ok()) << "step " << step;
    ASSERT_EQ(decoded.value().rgb, frame.rgb) << "step " << step;
    prev_encoded = frame;
    prev_decoded = decoded.value();
    have_prev = true;
  }
}

// --- framebuffer --------------------------------------------------------------------

TEST(Property, ExtractInsertIsIdentityOnRandomTiles) {
  std::mt19937 rng(41);
  render::FrameBuffer fb(64, 48);
  for (size_t i = 0; i < fb.color().size(); ++i) fb.color()[i] = static_cast<uint8_t>(rng());
  for (size_t i = 0; i < fb.depth().size(); ++i)
    fb.depth()[i] = static_cast<float>(rng() % 1000) / 1000.0f;
  for (int round = 0; round < 50; ++round) {
    const int x = static_cast<int>(rng() % 64);
    const int y = static_cast<int>(rng() % 48);
    const render::Tile tile{x, y, 1 + static_cast<int>(rng() % (64 - x)),
                            1 + static_cast<int>(rng() % (48 - y))};
    render::FrameBuffer copy = fb;
    copy.insert(tile, fb.extract(tile));
    ASSERT_EQ(copy.color(), fb.color());
    ASSERT_EQ(copy.depth(), fb.depth());
  }
}

TEST(Property, DepthCompositeIsOrderIndependentForDisjointDepths) {
  std::mt19937 rng(51);
  render::FrameBuffer a(16, 16), b(16, 16), c(16, 16);
  for (auto* fb : {&a, &b, &c}) {
    fb->clear({0, 0, 0});
    for (int i = 0; i < 40; ++i) {
      const int x = static_cast<int>(rng() % 16), y = static_cast<int>(rng() % 16);
      fb->set_pixel(x, y, static_cast<uint8_t>(rng()), static_cast<uint8_t>(rng()), 0);
      fb->set_depth(x, y, static_cast<float>(1 + rng() % 997) / 1000.0f);
    }
  }
  render::FrameBuffer abc = a;
  ASSERT_TRUE(render::depth_composite(abc, b).ok());
  ASSERT_TRUE(render::depth_composite(abc, c).ok());
  render::FrameBuffer cba = c;
  ASSERT_TRUE(render::depth_composite(cba, b).ok());
  ASSERT_TRUE(render::depth_composite(cba, a).ok());
  EXPECT_EQ(abc.depth(), cba.depth());
  EXPECT_EQ(abc.color(), cba.color());
}

}  // namespace
}  // namespace rave
