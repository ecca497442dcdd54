#include "render/compositor.hpp"

#include <algorithm>

#include "util/hash.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace rave::render {

using util::make_error;
using util::Result;
using util::Status;

namespace {
// Per-pixel "keep the nearer sample" merge, one row at a time through the
// SIMD depth-compare/select kernel. Pure compare + copy, so every lane
// width produces identical bytes; the level is resolved once per composite
// and shared by all bands.
void composite_rows(FrameBuffer& dst, const FrameBuffer& src, int y0, int y1,
                    util::SimdLevel level) {
  const int width = dst.width();
  for (int y = y0; y < y1; ++y) {
    util::simd::depth_select_row(dst.depth_row(y), src.depth_row(y), dst.color_row(y),
                                 src.color_row(y), width, level);
  }
}
}  // namespace

Status depth_composite(FrameBuffer& dst, const FrameBuffer& src, util::ThreadPool* pool) {
  if (dst.width() != src.width() || dst.height() != src.height())
    return make_error("depth_composite: size mismatch");
  const int height = dst.height();
  const util::SimdLevel level = util::active_simd_level();
  if (pool == nullptr || height < 2) {
    composite_rows(dst, src, 0, height, level);
    return {};
  }
  // Disjoint row bands; per-pixel merges are independent, so banding
  // cannot change the result.
  const int bands = std::min<int>(height, static_cast<int>(pool->size()) * 4);
  pool->parallel_for(static_cast<size_t>(bands), [&](size_t band) {
    const int y0 = height * static_cast<int>(band) / bands;
    const int y1 = height * (static_cast<int>(band) + 1) / bands;
    composite_rows(dst, src, y0, y1, level);
  });
  return {};
}

Status assemble_tiles(FrameBuffer& dst, const std::vector<TileResult>& tiles) {
  for (const TileResult& t : tiles) {
    if (t.buffer.width() != t.tile.width || t.buffer.height() != t.tile.height)
      return make_error("assemble_tiles: tile buffer size mismatch");
    dst.insert(t.tile, t.buffer);
  }
  return {};
}

Status blend_ordered(Image& dst, std::vector<BlendLayer> layers) {
  for (const BlendLayer& l : layers) {
    if (l.color.width != dst.width || l.color.height != dst.height ||
        l.alpha.size() != static_cast<size_t>(dst.width) * dst.height)
      return make_error("blend_ordered: layer size mismatch");
  }
  std::sort(layers.begin(), layers.end(), [](const BlendLayer& a, const BlendLayer& b) {
    return a.view_distance > b.view_distance;  // farthest first
  });
  for (const BlendLayer& l : layers) {
    for (size_t p = 0; p < l.alpha.size(); ++p) {
      const float a = std::clamp(l.alpha[p], 0.0f, 1.0f);
      if (a <= 0.0f) continue;
      for (int c = 0; c < 3; ++c) {
        const float src = static_cast<float>(l.color.rgb[p * 3 + static_cast<size_t>(c)]);
        const float old = static_cast<float>(dst.rgb[p * 3 + static_cast<size_t>(c)]);
        dst.rgb[p * 3 + static_cast<size_t>(c)] =
            static_cast<uint8_t>(std::clamp(src * a + old * (1.0f - a), 0.0f, 255.0f));
      }
    }
  }
  return {};
}

uint64_t hash_tile(const Image& image, const Tile& tile) {
  util::Xxh64 h((static_cast<uint64_t>(static_cast<uint32_t>(tile.width)) << 32) |
                static_cast<uint32_t>(tile.height));
  const size_t row_bytes = static_cast<size_t>(tile.width) * 3;
  for (int y = tile.y; y < tile.bottom(); ++y) h.update(image.pixel(tile.x, y), row_bytes);
  return h.digest();
}

std::vector<uint64_t> hash_tiles(const Image& image, const std::vector<Tile>& tiles) {
  std::vector<uint64_t> hashes;
  hashes.reserve(tiles.size());
  for (const Tile& tile : tiles) hashes.push_back(hash_tile(image, tile));
  return hashes;
}

uint64_t hash_image(const Image& image) {
  return hash_tile(image, Tile{0, 0, image.width, image.height});
}

}  // namespace rave::render
