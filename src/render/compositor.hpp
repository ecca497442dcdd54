// Compositing of distributed rendering results. Two modes, mirroring the
// paper's two distribution schemes (§3.2.5):
//  - depth compositing: full-frame buffers rendered from the same camera
//    by different services, merged per-pixel by depth ("compositing is
//    currently restricted to opaque solids");
//  - tile assembly: disjoint tiles inserted into the target frame.
// The ordered-blend path implements the §6 extension for transparent
// volume sub-blocks (back-to-front by view distance, as in Visapult).
#pragma once

#include <vector>

#include "render/framebuffer.hpp"
#include "util/vec.hpp"

namespace rave::util {
class ThreadPool;
}

namespace rave::render {

// Merge `src` into `dst` per pixel: the fragment nearer the camera wins.
// Buffers must be the same size and rendered from the same camera. With a
// pool the merge runs over disjoint row bands; pixels are independent so
// the result is identical to the serial pass.
util::Status depth_composite(FrameBuffer& dst, const FrameBuffer& src,
                             util::ThreadPool* pool = nullptr);

// Insert each tile's buffer into the destination frame.
struct TileResult {
  Tile tile;
  FrameBuffer buffer;
};
util::Status assemble_tiles(FrameBuffer& dst, const std::vector<TileResult>& tiles);

// A semi-transparent layer with the view distance of its content, for
// ordered blending of volume sub-blocks.
struct BlendLayer {
  Image color;
  std::vector<float> alpha;  // per pixel
  float view_distance = 0.0f;
};

// Blend layers over `dst` back-to-front (largest view_distance first).
util::Status blend_ordered(Image& dst, std::vector<BlendLayer> layers);

// Content addressing for the frame fan-out tier: XXH64 (util::Xxh64)
// streamed over a tile's pixel rows, seeded with its (width, height) so
// equal byte runs in different shapes address different content. Plain
// scalar integer arithmetic — identical across SIMD levels, thread counts
// and hosts, which is what lets an unchanged tile ship as a 16-byte
// reference instead of pixels.
uint64_t hash_tile(const Image& image, const Tile& tile);
std::vector<uint64_t> hash_tiles(const Image& image, const std::vector<Tile>& tiles);
// Whole-image hash (FrameEnd integrity check in the cached-frame stream).
uint64_t hash_image(const Image& image);

}  // namespace rave::render
