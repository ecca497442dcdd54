// Software rasterizer — the repo's stand-in for Java3D's hardware pipeline
// (DESIGN.md substitutions). Renders triangle meshes (Gouraud-shaded,
// z-buffered, near-plane clipped) and point clouds into a FrameBuffer, the
// whole frame or one tile of it. Deterministic: identical input produces
// identical pixels on every host, which is what makes distributed tile /
// subset compositing testable bit-exactly.
//
// The triangle kernel is a position-anchored edge-function raster: the
// three edge equations are set up once per triangle and evaluated directly
// at every pixel center (row base per row, ea*px + base per pixel), so the
// value at a pixel is a function of the triangle and the absolute pixel
// position alone. Any window (full frame or a region tile) and any SIMD
// lane width (scalar, SSE2, AVX2, NEON — picked by util::active_simd_level,
// override with RAVE_SIMD) performs the exact same float operations per
// pixel and reproduces the same bytes. Triangles are clipped, set up and
// rastered serially in submission order; with RenderOptions.pool set, only
// vertex shading runs on the pool, in chunks that write disjoint slots.
// Output is byte-identical to the serial scalar path for every thread
// count × SIMD level combination — see DESIGN.md "SIMD dispatch &
// determinism".
#pragma once

#include "render/framebuffer.hpp"
#include "scene/camera.hpp"
#include "scene/node.hpp"
#include "scene/tree.hpp"

namespace rave::util {
class ThreadPool;
}

namespace rave::render {

struct RenderList;  // render/render_list.hpp

using scene::Camera;
using util::Mat4;
using util::Vec3;

struct RenderStats {
  uint64_t triangles_submitted = 0;
  uint64_t triangles_rasterized = 0;  // after cull/clip
  uint64_t pixels_shaded = 0;
  uint64_t points_submitted = 0;
  uint64_t nodes_culled = 0;  // whole nodes skipped by frustum culling
  // Volume marcher (raycast.hpp). rays_cast counts rays that entered a
  // volume's bounds; volume_samples counts shaded (non-transparent)
  // samples — identical across SIMD levels and thread counts, like the
  // pixels. bricks_skipped counts macro-cell skip jumps taken, which vary
  // with the packet width (wider packets test bricks less often).
  uint64_t rays_cast = 0;
  uint64_t volume_samples = 0;
  uint64_t bricks_skipped = 0;

  RenderStats& operator+=(const RenderStats& o) {
    triangles_submitted += o.triangles_submitted;
    triangles_rasterized += o.triangles_rasterized;
    pixels_shaded += o.pixels_shaded;
    points_submitted += o.points_submitted;
    nodes_culled += o.nodes_culled;
    rays_cast += o.rays_cast;
    volume_samples += o.volume_samples;
    bricks_skipped += o.bricks_skipped;
    return *this;
  }
};

// Shading is fixed (rasterizer.cpp): one directional light over an
// ambient floor, back faces culled, a dark blue-grey background.
struct RenderOptions {
  // Skip whole nodes whose world bounds fall outside the view frustum.
  bool frustum_cull = true;
  // Restrict rasterization to one tile of the full viewport. Width 0 means
  // the whole frame. The projection always spans the full frame so tiles
  // from different services align exactly (paper §3.1.2).
  Tile region{};
  // Shade vertices on this pool (null = serial). Output is byte-identical
  // for every thread count, including serial.
  util::ThreadPool* pool = nullptr;
};

class Rasterizer {
 public:
  Rasterizer(int width, int height);

  void clear(const RenderOptions& options = {});

  // Render one mesh under `model` (model-to-world) with the given camera.
  void draw_mesh(const scene::MeshData& mesh, const Mat4& model, const Camera& camera,
                 const RenderOptions& options = {});

  void draw_points(const scene::PointCloudData& points, const Mat4& model, const Camera& camera,
                   const RenderOptions& options = {});

  // Render the rasterizable items (meshes, point clouds, avatars) of a
  // pre-culled render list (render_list.hpp) in list order; voxel grids are
  // the ray-caster's (raycast.hpp). Items before `first` are already in
  // the planes (a restored layer, layer_cache.hpp). The list's cull count
  // is folded into stats().nodes_culled.
  void draw_list(const RenderList& list, const Camera& camera,
                 const RenderOptions& options = {}, size_t first = 0);
  // Render raster items [first, last) of a list without folding its cull
  // count: the layer cache draws the prefix it snapshots with this.
  void draw_items(const RenderList& list, size_t first, size_t last, const Camera& camera,
                  const RenderOptions& options = {});

  [[nodiscard]] const FrameBuffer& framebuffer() const { return fb_; }
  [[nodiscard]] FrameBuffer& framebuffer() { return fb_; }

  [[nodiscard]] const RenderStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  FrameBuffer fb_;
  RenderStats stats_;
};

// Convenience: render a whole tree's rasterizable items into a fresh
// framebuffer — clear, build_render_list (options.frustum_cull), draw_list.
FrameBuffer render_tree(const scene::SceneTree& tree, const Camera& camera, int width, int height,
                        const RenderOptions& options = {}, RenderStats* stats = nullptr);

}  // namespace rave::render
