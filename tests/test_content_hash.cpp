// Content-hash kernel tests: util::Xxh64 against the XXH64 reference
// vectors, streaming (any split of the input) equal to one update, and
// render::hash_tile's addressing rules — independent of where a tile sits,
// shape-separating, correct on edge tiles whose rows are not a multiple of
// the 32-byte stripe, and identical at every SIMD level.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "mesh/primitives.hpp"
#include "render/compositor.hpp"
#include "render/rasterizer.hpp"
#include "util/hash.hpp"
#include "util/simd.hpp"

namespace rave {
namespace {

using render::Image;
using render::Tile;
using util::SimdLevel;
using util::Xxh64;

uint64_t one_shot(const uint8_t* data, size_t n, uint64_t seed = 0) {
  Xxh64 h(seed);
  h.update(data, n);
  return h.digest();
}

uint64_t one_shot(const char* text) {
  return one_shot(reinterpret_cast<const uint8_t*>(text), std::strlen(text));
}

std::vector<uint8_t> pattern(size_t n) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<uint8_t>(i * 131 + 7);
  return v;
}

Image test_image(int w, int h, int seed) {
  Image img(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      img.set_pixel(x, y, static_cast<uint8_t>(x * 5 + seed), static_cast<uint8_t>(y * 3 + seed),
                    static_cast<uint8_t>(x ^ y));
  return img;
}

// The tile-hash seed: the tile's shape, so equal bytes in different shapes
// hash apart.
uint64_t shape_seed(const Tile& tile) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(tile.width)) << 32) |
         static_cast<uint32_t>(tile.height);
}

TEST(ContentHash, Xxh64ReferenceVectors) {
  EXPECT_EQ(one_shot(""), 0xef46db3751d8e999ull);
  EXPECT_EQ(one_shot("abc"), 0x44bc2cf5ad770999ull);
  // 39 bytes: one 32-byte stripe, then a 7-byte tail (a 4-byte word and
  // three single bytes).
  EXPECT_EQ(one_shot("Nobody inspects the spammish repetition"), 0xfbcea83c8a378bf1ull);
}

TEST(ContentHash, StreamingEqualsOneShotAtEverySplit) {
  const std::vector<uint8_t> bytes = pattern(100);
  for (size_t n = 0; n <= bytes.size(); ++n) {
    const uint64_t want = one_shot(bytes.data(), n, 42);
    for (size_t split = 0; split <= n; ++split) {
      Xxh64 h(42);
      h.update(bytes.data(), split);
      h.update(bytes.data() + split, n - split);
      ASSERT_EQ(h.digest(), want) << "n=" << n << " split=" << split;
    }
  }
}

TEST(ContentHash, StreamingEqualsOneShotForFixedChunks) {
  const std::vector<uint8_t> bytes = pattern(1000);
  for (const size_t n : {size_t{100}, size_t{1000}}) {
    const uint64_t want = one_shot(bytes.data(), n, 7);
    for (const size_t chunk : {size_t{1}, size_t{31}, size_t{32}, size_t{33}}) {
      Xxh64 h(7);
      for (size_t at = 0; at < n; at += chunk) h.update(bytes.data() + at, std::min(chunk, n - at));
      EXPECT_EQ(h.digest(), want) << "n=" << n << " chunk=" << chunk;
    }
  }
}

TEST(ContentHash, SeedChangesTheHash) {
  const std::vector<uint8_t> bytes = pattern(64);
  EXPECT_NE(one_shot(bytes.data(), bytes.size(), 0), one_shot(bytes.data(), bytes.size(), 1));
}

TEST(ContentHash, TileHashIsIndependentOfPosition) {
  const Image content = test_image(64, 48, 3);
  Image frame(200, 150);
  const Tile at_origin{0, 0, 64, 48};
  const Tile inside{100, 70, 64, 48};
  frame.insert(at_origin, content);
  frame.insert(inside, content);
  const uint64_t h = render::hash_tile(frame, at_origin);
  EXPECT_EQ(render::hash_tile(frame, inside), h);
  EXPECT_EQ(render::hash_image(content), h);
  EXPECT_NE(render::hash_tile(frame, Tile{1, 0, 64, 48}), h);
}

TEST(ContentHash, EqualBytesInDifferentShapesHashApart) {
  Image wide(6, 2), tall(2, 6);
  const std::vector<uint8_t> bytes = pattern(36);
  wide.rgb = bytes;
  tall.rgb = bytes;
  EXPECT_NE(render::hash_image(wide), render::hash_image(tall));
}

TEST(ContentHash, EdgeTileRowsStreamAcrossStripes) {
  // A 400-px frame on the 64-px grid ends in a 16-px column: 48 bytes per
  // row, so every row but the first starts mid-stripe.
  const Image frame = test_image(400, 300, 9);
  const std::vector<Tile> grid = render::tile_grid(400, 300, 64);
  const Tile& edge = grid[6];
  ASSERT_EQ(edge.x, 384);
  ASSERT_EQ(edge.width, 16);
  const Image pixels = frame.extract(edge);
  EXPECT_EQ(render::hash_tile(frame, edge),
            one_shot(pixels.rgb.data(), pixels.rgb.size(), shape_seed(edge)));
  // The whole frame is one contiguous run too.
  EXPECT_EQ(render::hash_image(frame),
            one_shot(frame.rgb.data(), frame.rgb.size(), shape_seed(Tile{0, 0, 400, 300})));
}

TEST(ContentHash, TileHashesEqualAtEverySimdLevel) {
  struct LevelGuard {
    SimdLevel saved = util::active_simd_level();
    ~LevelGuard() { util::set_simd_level(saved); }
  } guard;
  scene::SceneTree tree;
  scene::MeshData ball = mesh::make_uv_sphere(1.0f, 24, 16);
  ball.base_color = {0.8f, 0.4f, 0.2f};
  tree.add_child(scene::kRootNode, "ball", std::move(ball));
  scene::Camera cam;
  cam.eye = {0, 0, 4};
  cam.target = {0, 0, 0};
  const std::vector<Tile> grid = render::tile_grid(200, 150, 64);

  const auto hashes_at = [&](SimdLevel level) {
    util::set_simd_level(level);
    const Image frame = render::render_tree(tree, cam, 200, 150).to_image();
    std::vector<uint64_t> out = render::hash_tiles(frame, grid);
    out.push_back(render::hash_image(frame));
    return out;
  };
  const std::vector<uint64_t> scalar = hashes_at(SimdLevel::Scalar);
  EXPECT_EQ(hashes_at(util::max_simd_level()), scalar);
}

}  // namespace
}  // namespace rave
